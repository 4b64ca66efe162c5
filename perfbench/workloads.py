"""The four benchmark workloads.

Each workload synthesizes its inputs from the seed in ``setup``, then runs
identical passes: every pass attempts the same operations on the same
inputs, so repeated passes must also give identical outputs.  ``check``
compares a pass's outputs with the independent computations in
``score``.  The program is reached only through its public modules, looked
up at call time, so a traced run sees every call.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

import score
from score import require

HERE = os.path.dirname(os.path.abspath(__file__))

# The two mixing matrices of the paper's simulation protocol, restated here
# so the population checks do not depend on the program's copies.
P1 = np.array([[1.0, 0.2, 0.3], [0.3, 0.8, 0.2]])
P2 = np.array([[-1.0, 0.3, -0.5], [-0.4, 0.8, 0.2]])
ALGORITHMS = ("bisc", "nbisc", "disim", "dscore", "rdscore")
# Methods that divide out per-node scales; bisc does not, so it is exempt
# from exact recovery of a degree-corrected population.
DEGREE_CORRECTING = ("nbisc", "disim", "dscore", "rdscore")


class PassResult:
    """What one pass attempted and returned (``raw``).  After the pass is
    timed, ``score_pass`` fills in ``outputs``, which must be equal across
    passes, and ``nmis``: min(row NMI, column NMI) per scored detection."""

    def __init__(self, attempted, failed, detections, raw):
        self.attempted = attempted
        self.failed = failed
        self.detections = detections
        self.raw = raw
        self.outputs = None
        self.nmis = []


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _population(rng, n_r, n_c, mixing, degree_corrected):
    rows = rng.permutation(np.arange(n_r) % mixing.shape[0]) + 1
    cols = rng.permutation(np.arange(n_c) % mixing.shape[1]) + 1
    block = mixing[np.ix_(rows - 1, cols - 1)]
    if not degree_corrected:
        return 0.5 * block, rows, cols
    theta_r = rng.uniform(0.2, 1.0, n_r)
    theta_c = rng.uniform(0.2, 1.0, n_c)
    return theta_r[:, None] * block * theta_c[None, :], rows, cols


def check_population(bidfm, rng, n_r, n_c, mixing, degree_corrected):
    """On the expected matrix itself every method must recover the planted
    partition exactly; under degree correction bisc is exempt."""
    omega, rows, cols = _population(rng, n_r, n_c, mixing, degree_corrected)
    for name in DEGREE_CORRECTING if degree_corrected else ALGORITHMS:
        a = omega
        if name in ("disim", "rdscore"):
            a, _ = bidfm.detect.shift_nonnegative(omega)
        result = getattr(bidfm.detect, name)(a, mixing.shape[0], mixing.shape[1], seed=0)
        errors = (score.error_rate(result.row_labels.labels, rows),
                  score.error_rate(result.col_labels.labels, cols))
        require(errors == (0.0, 0.0), f"{name} misses the planted partition on the "
                f"population matrix: errors {errors}")


class Sweep:
    """``run_simulation`` on a trimmed paper preset, all five algorithms."""

    def __init__(self, bidfm, seed, preset, rho_grid, replicates, shape, toy):
        self.bidfm = bidfm
        self.seed = seed
        self.shape = (30, 45) if toy else shape
        self.config = bidfm.experiments.preset(
            preset, rho_grid=rho_grid, replicates=1 if toy else replicates,
            base_seed=seed, n_r=self.shape[0], n_c=self.shape[1])
        self.detections = len(rho_grid) * self.config.replicates * len(ALGORITHMS)

    def setup(self, workdir):
        """The sweep synthesizes its own matrices inside the timed pass."""

    def warmup(self, workdir):
        tiny = self.bidfm.experiments.preset(
            self.config.name, rho_grid=(1.0,), replicates=1, n_r=30, n_c=45)
        self.bidfm.experiments.run_simulation(tiny)

    def run_pass(self, workdir, traced_cli=None):
        report = self.bidfm.experiments.run_simulation(self.config)
        failed = sum(p.failed for p in report.points)
        return PassResult(self.detections, failed, self.detections - failed, report)

    def score_pass(self, result, workdir):
        for p in result.raw.points:
            result.nmis += [p.mean_nmi] * p.replicates
        result.outputs = result.raw.to_csv()

    def check(self, result, workdir):
        report = result.outputs.splitlines()
        require(len(report) == 2 + len(self.config.rho_grid) * len(ALGORITHMS),
                f"report has {len(report) - 2} points")
        for line in report[2:]:
            fields = line.split(",")
            require(fields[-2:] == [str(self.config.replicates), "0"],
                    f"point {fields[:3]} reports {fields[-2]} replicates, {fields[-1]} failed")
            require(0.0 <= float(fields[5]) <= 1.0, f"mean NMI {fields[5]} out of range")
            require(-1.0 <= float(fields[7]) <= 1.0, f"mean ARI {fields[7]} out of range")
        model = self.config.model
        check_population(self.bidfm, _rng(self.seed, 1), *self.shape,
                         P1 if self.config.kind == "bernoulli" else P2,
                         degree_corrected=model == "bidcdfm")


class CliFiles:
    """``bidfm generate``, then ``detect`` with two methods, then ``evaluate``,
    each a subprocess working on files, one at a time."""

    METHODS = ("nbisc", "disim")  # one adjacency method, one Laplacian method

    def __init__(self, bidfm, seed, n, toy):
        self.bidfm = bidfm
        self.seed = seed
        self.n = 40 if toy else n
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bidfm.__file__)))
        self.latency = {}  # command -> seconds per subprocess, as the caller waits

    def setup(self, workdir):
        rng = _rng(self.seed, 2)
        n = self.n
        self.rows = rng.integers(1, 3, n)
        self.cols = rng.integers(1, 4, n)
        self.theta_r = np.sqrt(0.8) * rng.uniform(0.2, 1.0, n)
        self.theta_c = np.sqrt(0.8) * rng.uniform(0.2, 1.0, n)
        require(len(set(self.rows)) == 2 and len(set(self.cols)) == 3, "empty planted cluster")
        config = {
            "model": "bidcdfm", "k_r": 2, "k_c": 3, "mixing": P1.tolist(),
            "row_labels": self.rows.tolist(), "col_labels": self.cols.tolist(),
            "theta_row": self.theta_r.tolist(), "theta_col": self.theta_c.tolist(),
            "distribution": {"kind": "bernoulli"},
        }
        self.config_path = os.path.join(workdir, "model.json")
        with open(self.config_path, "w") as handle:
            json.dump(config, handle)

    def warmup(self, workdir):
        """Every command starts a fresh interpreter; nothing stays warm."""

    def _cli(self, args, traced_cli):
        if traced_cli is None:
            command = [sys.executable, "-m", "bidfm", *args]
        else:
            command = [sys.executable, os.path.join(HERE, "traced_cli.py"), traced_cli(), *args]
        start = time.perf_counter()
        done = subprocess.run(command, env=self.env, capture_output=True, text=True)
        self.latency.setdefault(args[0], []).append(time.perf_counter() - start)
        if done.returncode != 0:
            sys.stderr.write(f"bidfm {args[0]} exited {done.returncode}: {done.stderr[-2000:]}\n")
        return done

    def run_pass(self, workdir, traced_cli=None):
        """Runs in a fresh directory that the caller removes after ``check``."""
        prefix = os.path.join(workdir, "net")
        failed = 0
        generated = self._cli(["generate", "--config", self.config_path,
                               "--seed", str(self.seed), "--output", prefix], traced_cli)
        failed += generated.returncode != 0
        reports = {}
        for method in self.METHODS:
            out = os.path.join(workdir, method)
            detected = self._cli(["detect", "--input", f"{prefix}_adjacency.txt", "--alg", method,
                                  "--kr", "2", "--kc", "3", "--seed", str(self.seed),
                                  "--output", out], traced_cli)
            failed += detected.returncode != 0
            evaluated = self._cli(["evaluate", "--format", "json",
                                   "--est-rows", f"{out}_row_labels.txt",
                                   "--truth-rows", f"{prefix}_row_labels.txt",
                                   "--est-cols", f"{out}_col_labels.txt",
                                   "--truth-cols", f"{prefix}_col_labels.txt"], traced_cli)
            failed += evaluated.returncode != 0
            if evaluated.returncode == 0:
                reports[method] = json.loads(evaluated.stdout)
        return PassResult(1 + 2 * len(self.METHODS), failed, len(reports), reports)

    def score_pass(self, result, workdir):
        reports = result.raw
        result.nmis = [reports[m]["nmi"] for m in self.METHODS if m in reports]
        result.outputs = {m: self._labels(os.path.join(workdir, m)) for m in reports}

    @staticmethod
    def _read_labels(path):
        with open(path) as handle:
            lines = [line.split() for line in handle if not line.startswith("#")]
        return [x[0] for x in lines], np.array([int(x[1]) for x in lines])

    def _labels(self, prefix):
        return tuple(self._read_labels(f"{prefix}_{side}_labels.txt")[1].tolist()
                     for side in ("row", "col"))

    def check(self, result, workdir):
        prefix = os.path.join(workdir, "net")
        ids = [str(i) for i in range(1, self.n + 1)]
        for side, truth in (("row", self.rows), ("col", self.cols)):
            got_ids, labels = self._read_labels(f"{prefix}_{side}_labels.txt")
            require(got_ids == ids and np.array_equal(labels, truth),
                    f"generated {side} truth labels differ from the model")
        block = P1[np.ix_(self.rows - 1, self.cols - 1)]
        omega = self.theta_r[:, None] * block * self.theta_c[None, :]
        for name in ("omega", "adjacency"):
            path = f"{prefix}_{name}.txt"
            ours = np.loadtxt(path, comments="#", skiprows=2, ndmin=2)
            theirs = self.bidfm.fileio.read_matrix(path)
            require(np.array_equal(ours, theirs), f"numpy.loadtxt and read_matrix disagree on {name}")
            if name == "omega":
                require(np.array_equal(ours, omega), "written expected matrix differs from the model")
            else:
                require(set(np.unique(ours)) <= {0.0, 1.0}, "Bernoulli sample is not 0/1")
                sd = np.sqrt((omega * (1 - omega)).sum())
                require(abs(ours.sum() - omega.sum()) < 6 * sd + 1, "sample mean far from the model")
        reports = result.raw
        for method, (rows, cols) in result.outputs.items():
            own = score.pair_nmi(rows, self.rows, cols, self.cols)
            own_error = max(score.error_rate(rows, self.rows), score.error_rate(cols, self.cols))
            require(abs(own - reports[method]["nmi"]) <= 1e-9,
                    f"evaluate reports nmi {reports[method]['nmi']}, independent {own}")
            require(own_error == reports[method]["error_rate"],
                    f"evaluate reports error {reports[method]['error_rate']}, independent {own_error}")


class EdgeNetwork:
    """A directed degree-corrected network read from an edge list, filtered,
    its cluster count estimated, co-clustered and its sending and receiving
    partitions compared."""

    K = 3
    MIXING = np.array([[1.0, 0.15, 0.1], [0.2, 0.9, 0.15], [0.1, 0.25, 0.8]])

    def __init__(self, bidfm, seed, n, toy):
        self.bidfm = bidfm
        self.seed = seed
        self.n = 90 if toy else n

    def setup(self, workdir):
        rng = _rng(self.seed, 3)
        n, k = self.n, self.K
        self.rows = rng.permutation(np.arange(n) % k) + 1  # sending clusters
        self.cols = self.rows.copy()  # receiving clusters: a fifth of nodes move
        moved = rng.random(n) < 0.2
        self.cols[moved] = rng.integers(1, k + 1, int(moved.sum()))
        # about 1% density; a few sinks send nothing and a few sources
        # receive nothing, so filtering has nodes to drop
        scale = 0.25 if n >= 1000 else 0.9
        theta_out = scale * rng.uniform(0.2, 1.0, n)
        theta_in = scale * rng.uniform(0.2, 1.0, n)
        theta_out[rng.random(n) < 0.03] = 0.0
        theta_in[rng.random(n) < 0.03] = 0.0
        omega = theta_out[:, None] * self.MIXING[np.ix_(self.rows - 1, self.cols - 1)] * theta_in[None, :]
        np.fill_diagonal(omega, 0.0)
        self.matrix = rng.poisson(omega).astype(float)
        self.ids = [f"v{i:05d}" for i in rng.permutation(n)]
        self.path = os.path.join(workdir, "network.tsv")
        self.bidfm.fileio.write_edge_list(self.path, self.matrix, self.ids, self.ids)

    def warmup(self, workdir):
        tiny = EdgeNetwork(self.bidfm, self.seed, self.n, toy=True)
        tiny_dir = os.path.join(workdir, "warmup")
        os.makedirs(tiny_dir)
        tiny.setup(tiny_dir)
        tiny.run_pass(tiny_dir)

    def run_pass(self, workdir, traced_cli=None):
        bidfm = self.bidfm
        matrix, ids, _ = bidfm.fileio.read_edge_list(self.path)
        filtered = bidfm.experiments.filter_zero_degree(matrix, "both-or")
        estimate = bidfm.experiments.estimate_k_eigengap(filtered.matrix, m=8)
        result = bidfm.detect.nbisc(filtered.matrix, self.K, self.K, seed=self.seed)
        similarity = bidfm.experiments.row_column_similarity(result.row_labels, result.col_labels)
        return PassResult(5, 0, 1, (matrix, ids, filtered, estimate, result, similarity))

    def score_pass(self, result, workdir):
        _, ids, filtered, _, detected, similarity = result.raw
        rows, cols = detected.row_labels.labels.tolist(), detected.col_labels.labels.tolist()
        index = {name: i for i, name in enumerate(self.ids)}
        kept = np.array([index[ids[i - 1]] for i in filtered.kept_rows])
        result.nmis = [score.pair_nmi(rows, self.rows[kept], cols, self.cols[kept])]
        result.outputs = (rows, cols, similarity)

    def check(self, result, workdir):
        matrix, ids, filtered, estimate, _, _ = result.raw
        index = {name: i for i, name in enumerate(self.ids)}
        order = np.array([index[name] for name in ids])
        require(np.array_equal(matrix, self.matrix[np.ix_(order, order)]),
                "edge-list matrix differs from the written one after mapping ids back")
        present = (self.matrix.sum(axis=0) + self.matrix.sum(axis=1)) > 0
        require(sorted(order.tolist()) == np.nonzero(present)[0].tolist(),
                "edge-list node set differs from the nodes with an edge")
        live = (np.abs(matrix).sum(axis=1) > 0) & (np.abs(matrix).sum(axis=0) > 0)
        kept = tuple(int(i) + 1 for i in np.nonzero(live)[0])
        require(filtered.kept_rows == kept and filtered.kept_cols == kept,
                "filter_zero_degree kept a different node set")
        require(np.array_equal(filtered.matrix, matrix[np.ix_(live, live)]), "filtered matrix differs")
        values = np.array(estimate.singular_values)
        require(len(values) == 8 and np.all(values > 0) and np.all(np.diff(values) <= 0),
                f"eigengap singular values {values}")
        rows, cols, similarity = result.outputs
        own = (score.error_rate(cols, rows), score.nmi(cols, rows))
        require(similarity[0] == own[0] and abs(similarity[1] - own[1]) <= 1e-9,
                f"row_column_similarity {similarity[:2]} != independent {own}")


def make(name, bidfm, seed, toy):
    if name == "sweep-paper":
        return Sweep(bidfm, seed, "sim1b", (0.4, 0.6, 0.8), 1, (600, 900), toy)
    if name == "sweep-small":
        return Sweep(bidfm, seed, "sim3a", (0.6, 0.7, 0.8, 0.9, 1.0), 4, (100, 150), toy)
    if name == "cli-files":
        return CliFiles(bidfm, seed, 1000, toy)
    return EdgeNetwork(bidfm, seed, 3000, toy)


WORKLOADS = ("sweep-paper", "sweep-small", "cli-files", "edge-network")
