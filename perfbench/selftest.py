"""Toy-size self-test of the benchmark.

Run from the repository root: ``python3 perfbench/selftest.py``.  It runs
every workload on tiny inputs, untraced and traced, and checks that each
run passes its output checks and prints exactly the metrics, units and
directions that BENCHMARK.json declares.  The figures themselves mean
nothing at this size.
"""
import json
import os
import subprocess
import sys

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def declared():
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert spec["command"] == ["python3", "perfbench/run.py"], spec["command"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == list(table), f"{key} in BENCHMARK.json differs from run.py"
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    return spec


def main():
    spec = declared()
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--toy"],
                capture_output=True, text=True, timeout=170)
            assert done.returncode == 0, done.stderr
            machine, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
            assert set(machine["machine"]) >= {"cores", "blas", "blas_threads", "numpy", "scipy"}
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == want, f"{name} trace={trace}: metrics differ from BENCHMARK.json"
            print(f"ok  {name:13s} trace={trace}  attempted={result['attempted']}")
    print("selftest passed")


if __name__ == "__main__":
    main()
