"""Command-line front end.

Subcommands: ``generate`` (model config to expected/sampled matrices),
``detect`` (matrix to label files), ``evaluate`` (labels vs truth to a
metrics row), ``simulate`` (preset or config to an averaged report),
``estimate-k`` (singular values plus a gap suggestion), ``preprocess``
(zero-degree filtering), and ``theory`` (assumption checks and bound
envelopes).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import detect as detect_mod
from . import fileio
from .errors import BidfmError, ConvergenceError, DimensionError
from .experiments import (
    FILTER_MODES,
    PRESET_NAMES,
    estimate_k_eigengap,
    filter_zero_degree,
    preset,
    run_simulation,
)
from .linalg import _rng
from .metrics import MetricsReport, combined_report
from .model import expected_adjacency
from .sampling import sample_adjacency
from .theory import check_assumption, deviation_bound, error_envelope


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _common_flags(parser, seed=False, report=False):
    """``--output``, plus ``--seed`` and ``--format`` for the commands that
    draw random numbers and the ones that print a report."""
    if seed:
        parser.add_argument("--seed", type=int, default=None,
                            help="random seed (default 0)")
    parser.add_argument("--output", help="output file or prefix")
    if report:
        parser.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="report format"
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="bidfm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("generate",
                       help="build expected and sampled matrices from a model config")
    p.add_argument("--config", required=True, help="JSON model parameters")
    _common_flags(p, seed=True)

    p = sub.add_parser("detect",
                       help="run a detection algorithm on a matrix file")
    p.add_argument("--input", required=True, help="dense matrix file")
    p.add_argument("--alg", required=True, choices=detect_mod.ALGORITHMS)
    p.add_argument("--kr", required=True, type=int, help="row cluster count")
    p.add_argument("--kc", required=True, type=int, help="column cluster count")
    _common_flags(p, seed=True)

    p = sub.add_parser("evaluate",
                       help="score estimated labels against the truth")
    p.add_argument("--est-rows", required=True)
    p.add_argument("--truth-rows", required=True)
    p.add_argument("--est-cols", required=True)
    p.add_argument("--truth-cols", required=True)
    _common_flags(p, report=True)

    p = sub.add_parser("simulate",
                       help="run a simulation sweep and report averages")
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--config", help="JSON simulation configuration")
    p.add_argument("--replicates", type=int, help="override the replicate count")
    p.add_argument("--algorithms", help="comma-separated algorithm subset")
    _common_flags(p, seed=True, report=True)

    p = sub.add_parser("estimate-k",
                       help="suggest a cluster count from singular-value gaps")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, default=8, help="singular values to inspect")
    _common_flags(p, report=True)

    p = sub.add_parser("preprocess",
                       help="drop zero-degree nodes from a matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", required=True, choices=FILTER_MODES)
    _common_flags(p)

    p = sub.add_parser("theory",
                       help="evaluate assumption checks and bound envelopes")
    p.add_argument("--config", required=True, help="JSON theory inputs")
    _common_flags(p, report=True)

    return parser


def _emit(args, payload, csv_text):
    """Write a report to ``--output`` or stdout: ``payload`` as JSON under
    ``--format json``, ``csv_text`` otherwise.  JSON has no NaN or infinity:
    a non-finite number is written as ``null``."""
    text = csv_text
    if args.format == "json":
        plain = json.loads(json.dumps(payload, default=list), parse_constant=lambda _: None)
        text = json.dumps(plain, indent=2) + "\n"
    if args.output:
        fileio.atomic_write_text(args.output, text)
    else:
        sys.stdout.write(text)


def _write_label_pair(prefix, row_labels, col_labels):
    """Write ``{prefix}_row_labels.txt`` and ``{prefix}_col_labels.txt`` with
    node ids 1..n and return their paths."""
    paths = [f"{prefix}_row_labels.txt", f"{prefix}_col_labels.txt"]
    for path, labels in zip(paths, (row_labels, col_labels)):
        fileio.write_labels(path, range(1, len(labels) + 1), labels)
    return paths


def _cmd_generate(args):
    config = fileio.load_json(args.config)
    params = fileio.params_from_config(config)
    matrices = {"omega": expected_adjacency(params)}
    if "distribution" in config:  # draw before writing, so a bad law leaves no file
        spec = fileio.distribution_from_config(config["distribution"])
        matrices["adjacency"] = sample_adjacency(
            matrices["omega"], spec, args.seed if args.seed is not None else 0)
    prefix = args.output or "generated"
    written = []
    for name, matrix in matrices.items():
        written.append(f"{prefix}_{name}.txt")
        fileio.write_matrix(written[-1], matrix)
    written += _write_label_pair(prefix, params.row_membership, params.col_membership)
    print("\n".join(written))
    return 0


def _cmd_detect(args):
    a = fileio.read_matrix(args.input)
    result = getattr(detect_mod, args.alg)(a, args.kr, args.kc,
                                           seed=args.seed if args.seed is not None else 0)
    if "shift" in result.diagnostics:
        print(f"applied non-negative shift {result.diagnostics['shift']:.6g}",
              file=sys.stderr)
    paths = _write_label_pair(args.output or "detected", result.row_labels, result.col_labels)
    print("\n".join(paths))
    return 0


def _label_side(est_path, truth_path):
    """Estimated and true labels of one side, whose files must list the same
    node ids in the same order."""
    est_ids, est = fileio.read_labels(est_path)
    truth_ids, truth = fileio.read_labels(truth_path)
    if est_ids != truth_ids:
        raise DimensionError(f"{est_path} and {truth_path} list different node ids")
    return est, truth


def _cmd_evaluate(args):
    est_r, truth_r = _label_side(args.est_rows, args.truth_rows)
    est_c, truth_c = _label_side(args.est_cols, args.truth_cols)
    report = combined_report(est_r, truth_r, est_c, truth_c)
    _emit(args, report.__dict__, "# bidfm metrics v1\n" + MetricsReport.CSV_HEADER
          + "\n" + report.to_csv_row() + "\n")
    return 0


def _cmd_simulate(args):
    if bool(args.preset) == bool(args.config):
        raise UsageError("simulate needs exactly one of --preset or --config")
    overrides = {}  # each flag replaces its field before the one build checks it
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if args.algorithms is not None:
        overrides["algorithms"] = tuple(args.algorithms.split(","))
    if args.preset:
        config = preset(args.preset, **overrides)
    else:
        config = fileio.simulation_config_from_config(
            {**fileio.load_json(args.config), **overrides})
    report = run_simulation(config)
    payload = {
        "model": report.model,
        "kind": report.kind,
        "swept": report.swept_name,
        "points": [p.__dict__ for p in report.points],
    }
    _emit(args, payload, report.to_csv())
    return 0


def _cmd_estimate_k(args):
    a = fileio.read_matrix(args.input)
    estimate = estimate_k_eigengap(a, m=args.m)
    lines = ["# bidfm singular values v1", "rank,singular_value"]
    lines += [f"{i + 1},{v:.10g}" for i, v in enumerate(estimate.singular_values)]
    lines.append(f"# suggested k: {estimate.k_suggestion}")
    _emit(args, {"k_suggestion": estimate.k_suggestion,
                 "singular_values": list(estimate.singular_values)},
          "\n".join(lines) + "\n")
    return 0


def _cmd_preprocess(args):
    a = fileio.read_matrix(args.input)
    result = filter_zero_degree(a, args.mode)
    prefix = args.output or "filtered"
    fileio.write_matrix(f"{prefix}_matrix.txt", result.matrix)
    indices = {
        "kept_rows": list(result.kept_rows),
        "kept_cols": list(result.kept_cols),
        "zero_degree_rows": list(result.removed.rows),
        "zero_degree_cols": list(result.removed.cols),
    }
    if result.removed.both is not None:
        indices["zero_degree_both"] = list(result.removed.both)
        indices["zero_degree_either"] = list(result.removed.either)
    fileio.atomic_write_text(
        f"{prefix}_indices.json", json.dumps(indices, indent=2) + "\n"
    )
    print(f"{prefix}_matrix.txt\n{prefix}_indices.json")
    return 0


def _cmd_theory(args):
    config = fileio.load_json(args.config)
    model, inputs, c_alpha, c = fileio.theory_config_from_config(config)
    check = check_assumption(model, inputs)
    bound = deviation_bound(model, inputs, c_alpha)  # c_alpha is checked before c
    envelope = error_envelope(model, inputs, c)
    payload = {
        "model": model,
        "assumption_holds": check.holds,
        "assumption_ratio": check.ratio,
        "assumption_note": check.note,
        "spectral_deviation_bound": bound,
        "row_error_envelope": envelope.f_r,
        "col_error_envelope": envelope.f_c,
    }
    csv_text = "# bidfm theory report v1\nquantity,value\n" + "\n".join(
        f"{k},{v}" for k, v in payload.items()
    ) + "\n"
    _emit(args, payload, csv_text)  # a void bound: inf in CSV, null in JSON
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "detect": _cmd_detect,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "estimate-k": _cmd_estimate_k,
    "preprocess": _cmd_preprocess,
    "theory": _cmd_theory,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError(parser.format_usage())
        if getattr(args, "seed", None) is not None:
            _rng(args.seed)  # every command rejects a bad seed before any work
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (BidfmError, OSError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
