"""In-memory span tracing of bidfm, installed from outside the package.

``install`` wraps every public function of the traced modules and rebinds
each name that points at it in every ``bidfm`` module, so a call is
recorded at the name its caller looks up.
The scipy SVD entry points are wrapped as ``bidfm.linalg`` sees them, and
k-means restarts and Lloyd iterations are counted at ``linalg._lloyd``.
A span is ``[name, start, end, parent index]``; spans stay in memory until
``dump`` writes them out.  Work the tracer does itself (hashing, checks)
sits in ``trace.check`` spans, so it never counts as a layer's self time.
"""
from __future__ import annotations

import collections
import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

import score

TRACED_MODULES = ("model", "sampling", "linalg", "detect", "metrics", "experiments", "fileio", "cli")

# Full-LAPACK cross-checks of sampled SVD calls cost O(n^3); sample only
# inputs small enough to keep the traced run inside its time budget.
_NUMPY_CHECK_SIDE = 1000
_NUMPY_CHECKS = 3


class _Proxy:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, real, overrides):
        self._real = real
        self._overrides = overrides

    def __getattr__(self, name):
        return self._overrides[name] if name in self._overrides else getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.svd_inputs = set()
        self.scored = []  # independent min(row NMI, column NMI) per combined_report call
        self.failures = []
        self._stack = []
        self.numpy_checks = 0

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                self._check(observe, args, kwargs, result)
            return result

        return traced

    def _check(self, observe, args, kwargs, result):
        parent = self._stack[-1] if self._stack else -1
        span = ["trace.check", time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        try:
            observe(self, args, kwargs, result)
        except score.CheckFailed as exc:
            self.failures.append(str(exc))
        finally:
            span[2] = time.perf_counter()

    def count_lloyd(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["linalg.kmeans.restarts"] += 1
            self.counts["linalg.kmeans.iterations"] += result[3]
            return result

        return counted

    def dump(self, path, extra=None):
        """Write the spans as JSON lines, after one header line."""
        with open(path, "w") as handle:
            handle.write(json.dumps({
                "counts": dict(self.counts), "failures": self.failures,
                "svd_inputs": sorted(self.svd_inputs), "scored": self.scored, **(extra or {}),
            }) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _observe_svd(tracer, args, kwargs, factors):
    a = np.asarray(args[0] if args else kwargs["m"], dtype=float)
    k = args[1] if len(args) > 1 else kwargs["k"]
    digest = hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()
    tracer.svd_inputs.add(f"{a.shape}/{k}/{digest}")
    score.check_svd(a, k, factors.left, factors.singular_values, factors.right)
    if min(a.shape) <= _NUMPY_CHECK_SIDE and tracer.numpy_checks < _NUMPY_CHECKS:
        tracer.numpy_checks += 1
        score.check_values_against_numpy(a, factors.singular_values)


def _observe_report(tracer, args, kwargs, report):
    est_r, truth_r, est_c, truth_c = (getattr(x, "labels", x) for x in args)
    own = score.pair_nmi(est_r, truth_r, est_c, truth_c)
    own_error = max(score.error_rate(est_r, truth_r), score.error_rate(est_c, truth_c))
    score.require(abs(own - report.nmi) <= 1e-9, f"combined_report nmi {report.nmi} != {own}")
    score.require(own_error == report.error_rate,
                  f"combined_report error {report.error_rate} != {own_error}")
    tracer.scored.append(own)


def _observe_file_bytes(key):
    def observe(tracer, args, kwargs, result):
        tracer.counts[key] += os.path.getsize(args[0])

    return observe


def _observe_edges(tracer, args, kwargs, result):
    tracer.counts["fileio.read_edge_list.edges"] += int(np.count_nonzero(result[0]))


_OBSERVERS = {
    "linalg.truncated_svd": _observe_svd,
    "metrics.combined_report": _observe_report,
    "fileio.write_matrix": _observe_file_bytes("fileio.write_matrix.bytes"),
    "fileio.read_matrix": _observe_file_bytes("fileio.read_matrix.bytes"),
    "fileio.read_edge_list": _observe_edges,
}


def install(tracer):
    """Wrap the traced modules' public functions at every name bound to them."""
    modules = {name: importlib.import_module(f"bidfm.{name}") for name in TRACED_MODULES}
    wrapped = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped[obj] = tracer.wrap(name, obj, _OBSERVERS.get(name))
    holders = [m for n, m in sys.modules.items() if n == "bidfm" or n.startswith("bidfm.")]
    for holder in holders:
        for attr, obj in list(vars(holder).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(holder, attr, wrapped[obj])

    linalg = modules["linalg"]
    scipy = linalg.scipy
    linalg.scipy = _Proxy(scipy, {
        "linalg": _Proxy(scipy.linalg, {"svd": tracer.wrap("linalg.svd_dense", scipy.linalg.svd)}),
        "sparse": _Proxy(scipy.sparse, {"linalg": _Proxy(scipy.sparse.linalg, {
            "svds": tracer.wrap("linalg.svd_lanczos", scipy.sparse.linalg.svds)})}),
    })
    linalg._lloyd = tracer.count_lloyd(linalg._lloyd)
    cli = modules["cli"]
    for command, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = tracer.wrap(f"cli.{command}", fn)


def load(path):
    """Read back a file written by ``Tracer.dump``: (header, spans)."""
    with open(path) as handle:
        header = json.loads(handle.readline())
        return header, [json.loads(line) for line in handle]


def summarize(spans):
    """Per span name: calls, busy seconds and self seconds.

    Busy time counts only the outermost span of a name, so a function that
    calls itself (the transposed detectors) is not counted twice; self time
    is a span's duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = collections.defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for index, (name, start, end, parent) in enumerate(spans):
        entry = stats[name]
        entry["self_s"] += end - start - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["calls"] += 1
            entry["busy_s"] += end - start
    return stats
