"""Benchmark of the bidfm pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-paper --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of an untraced run; with
``--trace 1`` it spends half the time untraced and half with every public
function of the package wrapped, and prints the per-layer metrics.  The
line before the result is the machine record; the last line of standard
output is the result.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import score
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# (name, unit, better): the metric table BENCHMARK.json must agree with.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("detections_per_s", "1/s", "higher"),
    ("mean_nmi", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("linalg.truncated_svd.calls", "count", "lower"),
    ("linalg.truncated_svd.busy_s", "s", "lower"),
    ("linalg.truncated_svd.distinct_inputs", "count", "lower"),
    ("linalg.truncated_svd.useful_ratio", "ratio", "higher"),
    ("linalg.svd_dense.calls", "count", "lower"),
    ("linalg.svd_dense.busy_s", "s", "lower"),
    ("linalg.svd_lanczos.calls", "count", "lower"),
    ("linalg.svd_lanczos.busy_s", "s", "lower"),
    ("linalg.kmeans.calls", "count", "lower"),
    ("linalg.kmeans.busy_s", "s", "lower"),
    ("linalg.kmeans.restarts", "count", "lower"),
    ("linalg.kmeans.iterations", "count", "lower"),
    ("linalg.row_normalize.busy_s", "s", "lower"),
    *((f"detect.{alg}.{kind}", "s", "lower")
      for alg in ("bisc", "nbisc", "disim", "dscore", "rdscore") for kind in ("busy_s", "self_s")),
    ("sampling.sample_adjacency.calls", "count", "lower"),
    ("sampling.sample_adjacency.busy_s", "s", "lower"),
    ("model.expected_adjacency.busy_s", "s", "lower"),
    ("model.sample_memberships.busy_s", "s", "lower"),
    ("metrics.combined_report.calls", "count", "lower"),
    ("metrics.combined_report.busy_s", "s", "lower"),
    ("experiments.run_simulation.self_s", "s", "lower"),
    ("fileio.write_matrix.busy_s", "s", "lower"),
    ("fileio.write_matrix.mb_per_s", "MB/s", "higher"),
    ("fileio.read_matrix.busy_s", "s", "lower"),
    ("fileio.read_matrix.mb_per_s", "MB/s", "higher"),
    ("fileio.write_labels.busy_s", "s", "lower"),
    ("fileio.read_labels.busy_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.generate.busy_s", "s", "lower"),
    ("cli.detect.busy_s", "s", "lower"),
    ("cli.generate.latency_s", "s", "lower"),
    ("cli.detect.latency_s", "s", "lower"),
    ("fileio.read_edge_list.busy_s", "s", "lower"),
    ("fileio.read_edge_list.edges_per_s", "1/s", "higher"),
    ("experiments.estimate_k_eigengap.busy_s", "s", "lower"),
    ("experiments.filter_zero_degree.busy_s", "s", "lower"),
    ("experiments.row_column_similarity.busy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
SETUP_REPEATS = 3
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import bidfm.cli; "
                 "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-test; the figures mean nothing")
    return parser.parse_args(argv)


def machine_record(bidfm):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                       "numpy.libs", "libscipy_openblas*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {"cores": os.cpu_count(), "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": threads, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "bidfm": bidfm.__version__, "machine": platform.machine()}


def measure_setup(workload, workdir, env):
    """Median over repeats of a fresh interpreter's import of the CLI plus
    the synthesis of the workload's inputs; also returns the import median."""
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                               capture_output=True, text=True, check=True)
        start = time.perf_counter()
        workload.setup(workdir)
        synthesis = time.perf_counter() - start
        imports.append(float(probe.stdout))
        totals.append(imports[-1] + synthesis)
    return statistics.median(totals), statistics.median(imports)


def run_passes(workload, workdir, seconds, check, traced_cli=None):
    """Whole passes until the next one would take the timed total past
    ``seconds`` (at least one).  The first pass is checked; later ones must
    repeat its outputs."""
    results, times = [], []
    while True:
        pass_dir = os.path.join(workdir, f"pass{len(results)}")
        os.makedirs(pass_dir)
        begun = time.perf_counter()
        result = workload.run_pass(pass_dir, traced_cli)
        times.append(time.perf_counter() - begun)
        workload.score_pass(result, pass_dir)
        if results:
            if result.outputs != results[0].outputs:
                raise score.CheckFailed("a repeated pass gave different outputs")
        elif check:
            workload.check(result, pass_dir)
        result.raw = None  # may hold whole matrices; keep only what is compared
        shutil.rmtree(pass_dir)
        results.append(result)
        if sum(times) + times[-1] > seconds:
            return results, times


def layer_metrics(stats, header, passes, import_s, overhead_s, latency):
    counts, svd_inputs = header["counts"], header["svd_inputs"]

    def get(name, key="busy_s"):
        return stats.get(name, {}).get(key, 0.0) / passes

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    svd_calls = get("linalg.truncated_svd", "calls")
    metrics = {
        "linalg.truncated_svd.calls": svd_calls,
        "linalg.truncated_svd.busy_s": get("linalg.truncated_svd"),
        "linalg.truncated_svd.distinct_inputs": len(svd_inputs),
        "linalg.truncated_svd.useful_ratio": rate(len(svd_inputs), svd_calls),
        "linalg.kmeans.restarts": counts.get("linalg.kmeans.restarts", 0) / passes,
        "linalg.kmeans.iterations": counts.get("linalg.kmeans.iterations", 0) / passes,
        "fileio.write_matrix.mb_per_s": rate(counts.get("fileio.write_matrix.bytes", 0) / 1e6 / passes,
                                             get("fileio.write_matrix")),
        "fileio.read_matrix.mb_per_s": rate(counts.get("fileio.read_matrix.bytes", 0) / 1e6 / passes,
                                            get("fileio.read_matrix")),
        "fileio.read_edge_list.edges_per_s": rate(counts.get("fileio.read_edge_list.edges", 0) / passes,
                                                  get("fileio.read_edge_list")),
        "cli.import_s": import_s,
        "cli.generate.latency_s": statistics.median(latency.get("generate", [0.0])),
        "cli.detect.latency_s": statistics.median(latency.get("detect", [0.0])),
        "trace.overhead_s": overhead_s,
    }
    for name, _, _ in PER_LAYER:
        if name not in metrics:
            layer, key = name.rsplit(".", 1)
            metrics[name] = get(layer, key)
    return {name: metrics[name] for name, _, _ in PER_LAYER}


def merge_spans(tracer, child_files):
    """Per-name statistics and merged counters over this process and the
    traced CLI children, each summarized on its own span indices."""
    header = {"counts": dict(tracer.counts), "failures": list(tracer.failures),
              "svd_inputs": set(tracer.svd_inputs), "scored": list(tracer.scored)}
    sources = [tracer.spans]
    for path in child_files:
        child, child_spans = spans.load(path)
        for key, value in child["counts"].items():
            header["counts"][key] = header["counts"].get(key, 0) + value
        header["failures"] += child["failures"]
        header["svd_inputs"].update(child["svd_inputs"])
        header["scored"] += child["scored"]
        sources.append(child_spans)
    stats = {}
    for source in sources:
        for name, entry in spans.summarize(source).items():
            total = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                total[key] += value
    return stats, header


def print_shares(workload_name, stats, passes, wall, import_s, cli_runs):
    """Share of a traced pass spent in each layer, for the README table."""
    layers = ("linalg.truncated_svd", "linalg.kmeans", "linalg.row_normalize",
              "sampling.sample_adjacency", "metrics.combined_report",
              "fileio.write_matrix", "fileio.read_matrix", "fileio.write_labels",
              "fileio.read_labels", "fileio.read_edge_list", "experiments.estimate_k_eigengap",
              "experiments.filter_zero_degree", "detect.nbisc")
    lines = [f"{workload_name}: traced pass {wall:.3f} s"]
    for layer in layers:
        busy = stats.get(layer, {}).get("busy_s", 0.0) / passes
        if busy:
            lines.append(f"  {layer:36s} {busy:8.3f} s  {100 * busy / wall:5.1f}%")
    if cli_runs:
        lines.append(f"  {'cli.import_s x ' + str(cli_runs):36s} {import_s * cli_runs:8.3f} s  "
                     f"{100 * import_s * cli_runs / wall:5.1f}%")
    sys.stderr.write("\n".join(lines) + "\n")


def traced_run(workload, workdir, budget, args, results, times, import_s):
    """Traced passes after the untraced ones; returns them and the per-layer
    metrics, after checking the traced outputs against the untraced ones."""
    tracer = spans.Tracer()
    spans.install(tracer)
    child_files = []

    def traced_cli():
        child_files.append(os.path.join(workdir, f"child{len(child_files)}.jsonl"))
        return child_files[-1]

    latency = {k: list(v) for k, v in getattr(workload, "latency", {}).items()}
    traced, traced_times = run_passes(workload, workdir, budget, check=False, traced_cli=traced_cli)
    if traced[0].outputs != results[0].outputs:
        raise score.CheckFailed("the traced run gave different outputs")
    stats, header = merge_spans(tracer, child_files)
    mean_nmi = statistics.fmean(results[0].nmis)
    scored = header["scored"]
    if scored and abs(statistics.fmean(scored) - mean_nmi) > 1e-9:
        raise score.CheckFailed(f"independent mean NMI {statistics.fmean(scored)} != reported {mean_nmi}")
    if header["failures"]:
        raise score.CheckFailed("; ".join(sorted(set(header["failures"]))))
    overhead = statistics.median(traced_times) - statistics.median(times)
    print_shares(args.workload, stats, len(traced), statistics.median(traced_times),
                 import_s, len(child_files) // len(traced))
    trace_dir = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    tracer.dump(os.path.join(trace_dir, "main.jsonl"))
    for path in child_files:
        shutil.move(path, trace_dir)
    return traced, layer_metrics(stats, header, len(traced), import_s, overhead, latency)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "bidfm", "__init__.py")):
        sys.stderr.write("perfbench: no bidfm sources under ./src; run from the repository root\n")
        return 2
    sys.path.insert(0, src)
    import bidfm
    import bidfm.cli  # noqa: F401  (loads every traced module)

    env = dict(os.environ, PYTHONPATH=src)
    workload = workloads.make(args.workload, bidfm, args.seed, args.toy)
    workdir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    correct = True
    try:
        setup_s, import_s = measure_setup(workload, workdir, env)
        workload.warmup(workdir)
        budget = args.seconds / 2 if args.trace else args.seconds
        results, times = run_passes(workload, workdir, budget, check=True)
        sys.stderr.write("pass seconds: " + " ".join(f"{t:.3f}" for t in times) + "\n")
        if args.trace:
            traced, metrics = traced_run(workload, workdir, budget, args, results, times, import_s)
            results += traced
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            rss_kb = sum(resource.getrusage(who).ru_maxrss
                         for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(times),
                "detections_per_s": results[0].detections / statistics.median(times),
                "mean_nmi": statistics.fmean(results[0].nmis),
                "peak_rss_mb": rss_kb / 1024,
            }
            units = {name: unit for name, unit, _ in END_TO_END}
        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
    except score.CheckFailed as exc:
        sys.stderr.write(f"perfbench: output check failed: {exc}\n")
        correct = False
        attempted, failed, metrics, units = 1, 0, {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"machine": machine_record(bidfm)}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
