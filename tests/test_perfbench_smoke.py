"""The benchmark's own invariants on a toy traced sweep: its output checks
pass, no replicate's operator is decomposed twice, scipy's SVD calls are
counted, and every method still shows up as its own ``detect.<method>``
span.  About 4 s."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_toy_sweep_keeps_benchmark_invariants():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small", "--seed", "7",
         "--seconds", "1", "--trace", "1", "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["linalg.truncated_svd.useful_ratio"] == 1.0
    # the tracer counts scipy's SVD calls through ``linalg.scipy``; a loader
    # that bypasses that name would zero these counts
    assert metrics["linalg.svd_dense.calls"] + metrics["linalg.svd_lanczos.calls"] > 0
    assert metrics["linalg.kmeans.iterations"] > 0
    assert metrics["linalg.kmeans.restarts"] > 0
    for method in ("bisc", "nbisc", "disim", "dscore", "rdscore"):
        assert metrics[f"detect.{method}.busy_s"] > 0, method
