import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bidfm import fileio
from bidfm.cli import main
from bidfm.errors import BidfmError, ParseError, ValidationError
from bidfm.model import P2, BiDCDFMParams, BiDFMParams, Membership
from bidfm.sampling import DistributionSpec
from bidfm.theory import (
    TheoryInputs,
    check_assumption,
    deviation_bound,
    error_envelope,
    theory_inputs,
)


# every field the assumption checks, bounds and envelopes of both models read
THEORY_INPUTS = {
    "n_r": 200, "n_c": 300, "k_r": 2, "k_c": 2, "sigma_min_mixing": 0.5,
    "gamma": 1.0, "tau": 1.0, "n_r_min": 90, "n_r_max": 110, "n_c_min": 140,
    "n_c_max": 160, "rho": 0.5, "theta_r_min": 0.5, "theta_r_max": 0.9,
    "theta_c_min": 0.5, "theta_c_max": 0.9, "theta_r_l1": 140.0, "theta_c_l1": 210.0,
}


def _reject(token):
    """A strict JSON parser's ``parse_constant``: NaN and infinities are not JSON."""
    raise ValueError(f"not JSON: {token}")


# a valid plain-model config, for the malformed variants below
MODEL = {"n_r": 6, "n_c": 6, "k_r": 2, "k_c": 3, "mixing": "P1", "rho": 0.5}

# a valid simulation config, for the bad cluster counts below
SIMULATION = {"model": "bidfm", "kind": "bernoulli", "mixing": "P1", "n_r": 30, "n_c": 45,
              "rho_grid": [0.5], "replicates": 1}

# configs with one key the config readers must reject:
# id -> (command, config, the key its error names)
PROBES = {
    "misspelled-key": ("generate", {**MODEL, "membership_sed": 1}, "membership_sed"),
    "half-theta-pair": ("generate", {**MODEL, "model": "bidcdfm", "theta_row": [0.5] * 6},
                        "theta_col"),
    "theta-on-plain-model": ("generate", {**MODEL, "theta": {"seed": 1}}, "theta"),
    "unknown-theta-key": ("generate", {**MODEL, "model": "bidcdfm", "theta": {"sed": 1}},
                          "sed"),
    "unknown-theory-key": ("theory", {"inputs": THEORY_INPUTS, "c_aplha": 1.0}, "c_aplha"),
    "flat-mixing": ("generate", {**MODEL, "mixing": [1.0, 0.2, 0.3, 0.3, 0.8, 0.2]},
                    "mixing"),
    "generate-zero-k-r": ("generate", {**MODEL, "k_r": 0}, "k_r"),
    "generate-negative-k-r": ("generate", {**MODEL, "k_r": -1}, "k_r"),
    "simulate-zero-k-r": ("simulate", {**SIMULATION, "k_r": 0}, "k_r"),
    "simulate-negative-k-r": ("simulate", {**SIMULATION, "k_r": -1}, "k_r"),
    "theory-zero-sizes": ("theory", {"inputs": {**THEORY_INPUTS, "n_r": 0, "n_c": 0}},
                          "n_c"),
    "theory-negative-rho": ("theory", {"inputs": {**THEORY_INPUTS, "rho": -0.5}}, "rho"),
    "theory-zero-sigma-min": ("theory", {"inputs": {**THEORY_INPUTS, "sigma_min_mixing": 0}},
                              "sigma_min_mixing"),
    "theory-zero-n-r-min": ("theory", {"inputs": {**THEORY_INPUTS, "n_r_min": 0}},
                            "n_r_min"),
    "theory-zero-theta-r-min": ("theory", {"model": "bidcdfm",
                                           "inputs": {**THEORY_INPUTS, "theta_r_min": 0}},
                                "theta_r_min"),
    "nonpositive-c-alpha": ("theory", {"inputs": THEORY_INPUTS, "c_alpha": -2.0}, "c_alpha"),
    "zero-c": ("theory", {"inputs": THEORY_INPUTS, "c": 0.0}, "'c'"),
}


# configs holding a JSON integer beyond the float range where a float goes:
# id -> (command, config, the key its error names)
HUGE = 10**400
UNSWEPT = {key: value for key, value in SIMULATION.items() if key != "rho_grid"}
BEYOND_FLOAT = {
    "rho": ("generate", {**MODEL, "rho": HUGE}, "rho"),
    "mixing-entry": ("generate", {**MODEL, "mixing": [[HUGE, 0.2, 0.3], [0.3, 0.8, 0.2]]},
                     "mixing"),
    "theta-row-entry": ("generate", {**MODEL, "model": "bidcdfm",
                                     "theta_row": [HUGE] + [0.5] * 5, "theta_col": [0.5] * 6},
                        "theta_row"),
    "theta-floor": ("generate", {**MODEL, "model": "bidcdfm", "theta": {"floor": HUGE}},
                    "floor"),
    "sigma2": ("generate", {**MODEL, "distribution": {"kind": "normal", "sigma2": HUGE}},
               "sigma2"),
    "rho-grid": ("simulate", {**SIMULATION, "rho_grid": [HUGE]}, "rho_grid"),
    "fixed-rho": ("simulate", {**UNSWEPT, "rho": HUGE, "n_grid": [30]}, "'rho'"),
    "sigma2-grid": ("simulate", {**UNSWEPT, "kind": "normal", "mixing": "P2", "rho": 0.5,
                                 "sigma2_grid": [HUGE]}, "sigma2_grid"),
}


def _g(value):
    return format(value, ".10g")


# each report command's CSV text, rebuilt from its JSON payload
CSV_FROM_JSON = {
    "evaluate": lambda p: (f"# bidfm metrics v1\n{','.join(p)}\n"
                           + ",".join(_g(v) for v in p.values()) + "\n"),
    "simulate": lambda p: (
        f"# bidfm experiment report v1: {p['model']}/{p['kind']}\n"
        "algorithm,swept,value,mean_error,se_error,mean_nmi,se_nmi,mean_ari,se_ari,"
        "replicates,failed\n"
        + "".join(",".join([q["algorithm"], p["swept"],
                            *(_g(q[key]) for key in ("value", "mean_error", "se_error",
                                                     "mean_nmi", "se_nmi", "mean_ari",
                                                     "se_ari")),
                            str(q["replicates"]), str(q["failed"])]) + "\n"
                  for q in p["points"])),
    "estimate-k": lambda p: (
        "# bidfm singular values v1\nrank,singular_value\n"
        + "".join(f"{i},{_g(v)}\n" for i, v in enumerate(p["singular_values"], start=1))
        + f"# suggested k: {p['k_suggestion']}\n"),
    "theory": lambda p: ("# bidfm theory report v1\nquantity,value\n"
                         + "".join(f"{k},{v}\n" for k, v in p.items())),
}


class TestMatrixFormat:
    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "m.txt"
        fileio.write_matrix(path, np.eye(3))
        assert np.array_equal(fileio.read_matrix(path), np.eye(3))

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-8, 8, (5, 7))
        path = tmp_path / "m.txt"
        fileio.write_matrix(path, a)
        back = fileio.read_matrix(path)
        assert back.dtype == a.dtype
        assert np.array_equal(back, a)

    def test_written_bytes(self, tmp_path):
        # each value is written as its shortest round-tripping repr
        path = tmp_path / "m.txt"
        fileio.write_matrix(path, np.array([[-0.0, 5e-324], [0.1, 1e300]]))
        assert path.read_bytes() == (b"# bidfm dense matrix v1\n2 2\n"
                                     b"-0.0 5e-324\n0.1 1e+300\n")

    def test_new_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "m.txt"
        old = os.umask(0o022)
        try:
            fileio.write_matrix(path, np.eye(2))
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        fileio.write_matrix(path, np.ones((4, 2)))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError):
            fileio.read_matrix(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1.0 2.0\n1.0 oops\n")
        with pytest.raises(ParseError, match="line 3"):
            fileio.read_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n1.0 inf\n")
        with pytest.raises(ParseError):
            fileio.read_matrix(path)


class TestEdgeList:
    def test_square_universe(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("a\tb\t2.0\nb\tc\t-1.5\nc\ta\t1.0\n")
        matrix, row_ids, col_ids = fileio.read_edge_list(path)
        assert row_ids == col_ids == ["a", "b", "c"]
        assert matrix[0, 1] == 2.0
        assert matrix[1, 2] == -1.5
        assert matrix[2, 0] == 1.0
        assert matrix.sum() == pytest.approx(1.5)

    def test_duplicates_summed_with_warning(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("a\tb\t1.0\na\tb\t2.5\n")
        with pytest.warns(UserWarning, match="duplicate"):
            matrix, _, _ = fileio.read_edge_list(path)
        assert matrix[0, 1] == 3.5

    @pytest.mark.parametrize("weight", ["1e308", "-1e308"])
    def test_duplicates_summed_beyond_the_float_range_rejected(self, tmp_path, weight):
        path = tmp_path / "edges.tsv"
        path.write_text(f"a\tb\t1.0\nc\td\t{weight}\nc\td\t{weight}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=r"\('c', 'd'\) sum beyond the float range"):
                fileio.read_edge_list(path)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("source,target,weight\na,b,1.0\n")
        matrix, _, _ = fileio.read_edge_list(path, delimiter=",", header=True)
        assert matrix[0, 1] == 1.0

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("\n")
        with pytest.raises(ParseError):
            fileio.read_edge_list(path)

    def test_separate_universes(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("u1\tm1\t5\nu2\tm1\t3\nu1\tm2\t1\n")
        matrix, row_ids, col_ids = fileio.read_edge_list(
            path, directed_as_bipartite=False
        )
        assert row_ids == ["u1", "u2"]
        assert col_ids == ["m1", "m2"]
        assert matrix.shape == (2, 2)

    def test_bad_weight_reports_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("a\tb\t1.0\na\tc\tnope\n")
        with pytest.raises(ParseError, match="line 2"):
            fileio.read_edge_list(path)

    def test_generated_matrix_round_trips(self, tmp_path):
        from bidfm.model import P1, BiDFMParams, expected_adjacency, sample_memberships

        params = BiDFMParams(
            sample_memberships(8, 2, 0), sample_memberships(11, 3, 1), P1, 0.7
        )
        omega = expected_adjacency(params)  # fully nonzero, canonical ids
        path = tmp_path / "omega.tsv"
        fileio.write_edge_list(path, omega)
        back, row_ids, col_ids = fileio.read_edge_list(
            path, directed_as_bipartite=False
        )
        assert row_ids == [str(i) for i in range(1, 9)]
        assert col_ids == [str(j) for j in range(1, 12)]
        assert np.array_equal(back, omega)


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.txt"
        fileio.write_labels(path, ["n1", "n2", "n3"], [2, 1, 2])
        ids, labels = fileio.read_labels(path)
        assert ids == ["n1", "n2", "n3"]
        assert np.array_equal(labels, [2, 1, 2])

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValidationError):
            fileio.write_labels(tmp_path / "x.txt", ["a"], [1, 2])

    @pytest.mark.parametrize("labels", [[0, 1.5, 2], [1, 1.5, 2], [0, 1, 2], ["1", "2", "x"]],
                             ids=["zero-and-fraction", "fraction", "zero", "string"])
    def test_writes_only_labels_the_reader_accepts(self, tmp_path, labels):
        # a label the reader would reject is an error here, and no file is written
        path = tmp_path / "labels.txt"
        with pytest.raises(BidfmError):
            fileio.write_labels(path, ["a", "b", "c"], labels)
        assert not path.exists()

    def test_writes_a_membership(self, tmp_path):
        path = tmp_path / "labels.txt"
        fileio.write_labels(path, ["a", "b"], Membership([2.0, 1.0], n_clusters=3))
        assert fileio.read_labels(path)[1].tolist() == [2, 1]

    def test_repeated_id_reports_line(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("# labels\na\t1\nb\t2\na\t1\n")
        with pytest.raises(ParseError, match="repeated node id 'a'") as info:
            fileio.read_labels(path)
        assert info.value.line == 4


class TestErrorsNameTheirFile:
    # each reader's ParseError: (reader, file text, the line and problem it names)
    CASES = {
        "repeated-id": (fileio.read_labels, "# labels\n1\t1\n1\t2\n",
                        "line 3: repeated node id '1'"),
        "zero-label": (fileio.read_labels, "1\t0\n2\t1\n", "line 1: label '0' is not in"),
        "label-beyond-int64": (fileio.read_labels, "1\t1\n2\t99999999999999999999\n",
                               "line 2: label '99999999999999999999' is not in"),
        "bad-label": (fileio.read_labels, "1\tx\n", "line 1: bad label 'x'"),
        "bad-value": (fileio.read_matrix, "2 2\n1 2\n1 x\n",
                      "line 3: could not convert string to float: 'x'"),
        "empty-matrix": (fileio.read_matrix, "# nothing\n", "empty matrix file"),
        "bad-weight": (fileio.read_edge_list, "a b 1\na c w\n", "line 2: bad weight 'w'"),
        "bad-json": (fileio.load_json, '{"a": \n', "line 2: Expecting value"),
        "json-list": (fileio.load_json, "[1]", "expected a JSON object, got list"),
        "json-digits": (fileio.load_json, '{"rho": 1' + "0" * 5000 + "}", "4300"),
        "not-utf8": (fileio.read_labels, "caf\xe9".encode("latin-1"), "not UTF-8 text"),
    }

    @pytest.mark.parametrize("reader, text, message", CASES.values(), ids=CASES)
    def test_parse_error_names_path(self, tmp_path, reader, text, message):
        path = tmp_path / "input.txt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ParseError) as info:
            reader(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)
        assert info.value.path == path

    @pytest.mark.parametrize("args, bad, message", [
        (["evaluate", "--est-rows", "{ok}", "--truth-rows", "{bad}", "--est-cols", "{ok}",
          "--truth-cols", "{ok}"], "1\t1\n2\t2\n1\t1\n", "line 3: repeated node id '1'"),
        (["evaluate", "--est-rows", "{bad}", "--truth-rows", "{ok}", "--est-cols", "{ok}",
          "--truth-cols", "{ok}"], "1\t0\n2\t1\n3\t1\n",
         "line 1: label '0' is not in 1..9223372036854775807"),
        (["evaluate", "--est-rows", "{ok}", "--truth-rows", "{ok}", "--est-cols", "{bad}",
          "--truth-cols", "{ok}"], "1\t99999999999999999999\n2\t1\n3\t1\n",
         "line 1: label '99999999999999999999' is not in 1..9223372036854775807"),
        (["detect", "--input", "{bad}", "--alg", "bisc", "--kr", "1", "--kc", "1"],
         "# m\n2 2\n1 2\n1 x\n", "line 4: could not convert string to float: 'x'"),
    ], ids=["evaluate-repeated-id", "evaluate-zero-label", "evaluate-huge-label",
            "detect-bad-value"])
    def test_cli_error_names_path(self, tmp_path, capsys, args, bad, message):
        ok, bad_path = tmp_path / "ok.txt", tmp_path / "bad.txt"
        fileio.write_labels(ok, ["1", "2", "3"], [1, 2, 1])
        bad_path.write_text(bad)
        args = [a.format(ok=ok, bad=bad_path) for a in args]
        assert main([*args, "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"data error: {bad_path}: {message}\n"


class TestConfigParsing:
    def test_named_mixing(self):
        assert np.array_equal(fileio.mixing_from_config("P2"), P2)

    def test_params_round_trip_through_config(self):
        params = fileio.params_from_config(
            {
                "model": "bidcdfm",
                "n_r": 20,
                "n_c": 30,
                "k_r": 2,
                "k_c": 3,
                "mixing": "P1",
                "rho": 0.5,
                "membership_seed": 5,
                "theta": {"seed": 9, "floor": 0.1},
            }
        )
        assert params.shape == (20, 30)
        assert params.theta_row.min() > np.sqrt(0.5) * 0.1

    def test_explicit_labels(self):
        params = fileio.params_from_config(
            {
                "model": "bidfm",
                "k_r": 2,
                "k_c": 2,
                "mixing": [[1.0, 0.2], [0.3, 0.8]],
                "rho": 0.3,
                "row_labels": [1, 2, 1],
                "col_labels": [2, 1, 2, 1],
            }
        )
        assert np.array_equal(params.row_membership.labels, [1, 2, 1])

    @pytest.mark.parametrize("key", ["k_r", "mixing", "n_c", "rho"])
    def test_missing_key_is_named(self, key):
        config = {k: v for k, v in MODEL.items() if k != key}
        with pytest.raises(ValidationError, match=f"missing config key '{key}'"):
            fileio.params_from_config(config)

    def test_simulation_config_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown"):
            fileio.simulation_config_from_config({"model": "bidfm", "bogus": 1})

    def test_theory_inputs_unbounded_tau(self):
        inputs = fileio.theory_inputs_from_config(
            {
                "n_r": 10, "n_c": 20, "k_r": 2, "k_c": 2,
                "sigma_min_mixing": 0.5, "gamma": 1.0,
                "n_r_min": 4, "n_r_max": 6, "n_c_min": 9, "n_c_max": 11,
                "rho": 0.5,
            }
        )
        assert np.isinf(inputs.tau)


@pytest.fixture
def model_config(tmp_path):
    config = {
        "model": "bidfm",
        "n_r": 40,
        "n_c": 60,
        "k_r": 2,
        "k_c": 3,
        "mixing": "P1",
        "rho": 0.8,
        "membership_seed": 3,
        "distribution": {"kind": "bernoulli"},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    return path


class TestCli:
    def test_generate_detect_evaluate_flow(self, tmp_path, model_config, capsys):
        prefix = str(tmp_path / "gen")
        assert main(["generate", "--config", str(model_config),
                     "--seed", "7", "--output", prefix]) == 0
        capsys.readouterr()

        detected = str(tmp_path / "det")
        assert main(["detect", "--input", f"{prefix}_adjacency.txt",
                     "--alg", "bisc", "--kr", "2", "--kc", "3",
                     "--seed", "1", "--output", detected]) == 0
        capsys.readouterr()

        report = tmp_path / "metrics.csv"
        assert main(["evaluate",
                     "--est-rows", f"{detected}_row_labels.txt",
                     "--truth-rows", f"{prefix}_row_labels.txt",
                     "--est-cols", f"{detected}_col_labels.txt",
                     "--truth-cols", f"{prefix}_col_labels.txt",
                     "--output", str(report)]) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        header, row = lines[1], lines[2]
        assert header.split(",")[0] == "error_rate_r"
        values = [float(v) for v in row.split(",")]
        assert all(0.0 <= v <= 1.0 for v in values)

        ids, labels = fileio.read_labels(f"{detected}_row_labels.txt")
        assert len(ids) == 40
        assert set(labels) <= {1, 2}

    def test_evaluate_identical_labels_zero_error(self, tmp_path, capsys):
        path = tmp_path / "labels.txt"
        fileio.write_labels(path, ["1", "2", "3", "4"], [1, 2, 1, 2])
        assert main(["evaluate", "--est-rows", str(path), "--truth-rows", str(path),
                     "--est-cols", str(path), "--truth-cols", str(path)]) == 0
        out = capsys.readouterr().out
        row = out.strip().splitlines()[2].split(",")
        assert float(row[2]) == 0.0  # combined error rate
        assert float(row[5]) == 1.0  # combined nmi

    @pytest.mark.parametrize("huge", [2**62, 2**63 - 1])
    def test_evaluate_huge_label(self, tmp_path, capsys, huge):
        # a label far past the node count scores like any other name
        truth, est = tmp_path / "truth.txt", tmp_path / "est.txt"
        fileio.write_labels(truth, ["1", "2", "3"], [1, 2, 1])
        fileio.write_labels(est, ["1", "2", "3"], [1, huge, 1])
        assert main(["evaluate", "--est-rows", str(est), "--truth-rows", str(truth),
                     "--est-cols", str(truth), "--truth-cols", str(est)]) == 0
        assert capsys.readouterr().out.splitlines()[2] == "0,0,0,1,1,1,1,1,1"

    def test_evaluate_rejects_mismatched_ids(self, tmp_path, capsys):
        truth, est = tmp_path / "truth.txt", tmp_path / "est.txt"
        fileio.write_labels(truth, ["1", "2", "3", "4"], [1, 2, 1, 2])
        fileio.write_labels(est, ["d", "c", "b", "a"], [1, 2, 1, 2])
        assert main(["evaluate", "--est-rows", str(truth), "--truth-rows", str(truth),
                     "--est-cols", str(est), "--truth-cols", str(truth)]) == 2
        err = capsys.readouterr().err
        assert str(est) in err and str(truth) in err

    @pytest.mark.parametrize("change", [
        {"rho": 2.0, "distribution": {"kind": "bernoulli"}},
        {"distribution": {"kind": "normal"}},
    ], ids=["rho-outside-bernoulli", "normal-without-sigma2"])
    def test_generate_bad_law_writes_nothing(self, tmp_path, capsys, change):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**MODEL, **change}))
        assert main(["generate", "--config", str(path),
                     "--output", str(tmp_path / "out")]) == 2
        assert list(tmp_path.glob("out_*")) == []

    @pytest.mark.parametrize("command, config, key", BEYOND_FLOAT.values(), ids=BEYOND_FLOAT)
    def test_integer_beyond_float_range_is_data_error(self, tmp_path, capsys, command,
                                                      config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("command, config", [
        ("generate", {**MODEL, "rho": "HUGE"}),
        ("simulate", {**SIMULATION, "rho_grid": ["HUGE"]}),
        ("theory", {"inputs": {**THEORY_INPUTS, "rho": "HUGE"}}),
    ], ids=["generate", "simulate", "theory"])
    def test_integer_beyond_digit_limit_is_data_error(self, tmp_path, capsys, command,
                                                      config):
        # 5001 digits: past Python's int-string limit, which json.dumps obeys too
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace('"HUGE"', "1" + "0" * 5000))
        assert main([command, "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert list(tmp_path.glob("out*")) == []

    def test_cluster_count_beyond_index_range_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**MODEL, "k_r": 10**30, "row_labels": [1, 2, 1, 2, 1, 2]}))
        assert main(["generate", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "row membership leaves at least one cluster empty" in err
        assert "exceeds K_c" in err and "mixing matrix shape" in err
        assert list(tmp_path.glob("out*")) == []

    def test_simulate_deterministic_output(self, tmp_path, capsys):
        config = {
            "model": "bidfm", "kind": "bernoulli", "mixing": "P1",
            "n_r": 30, "n_c": 45, "rho_grid": [0.6, 0.9],
            "replicates": 2, "algorithms": ["bisc"],
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(config))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg_path), "--seed", "5",
                     "--output", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--seed", "5",
                     "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert len(lines) == 2 + 2  # header comment + csv header + 2 points

    def test_simulate_preset_smoke(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["simulate", "--preset", "sim1a", "--replicates", "1",
                     "--algorithms", "bisc", "--seed", "7",
                     "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 + 10  # ten sparsity values

    def test_simulate_requires_one_source(self, capsys):
        assert main(["simulate"]) == 1

    def test_simulate_honors_config_base_seed(self, tmp_path):
        config = {
            "model": "bidfm", "kind": "bernoulli", "mixing": "P1",
            "n_r": 30, "n_c": 45, "rho_grid": [0.8], "replicates": 2,
            "algorithms": ["bisc"], "base_seed": 123,
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(config))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg_path),
                     "--output", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--seed", "123",
                     "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("flag, value", [("--replicates", "0"), ("--algorithms", ""),
                                             ("--algorithms", "nbisc,nbisc")],
                             ids=["zero-replicates", "no-algorithms", "repeated-algorithms"])
    def test_simulate_rejects_empty_override(self, tmp_path, flag, value):
        config = {
            "model": "bidfm", "kind": "bernoulli", "mixing": "P1",
            "n_r": 30, "n_c": 45, "rho_grid": [0.8], "replicates": 1,
            "algorithms": ["bisc"],
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfg_path), flag, value,
                     "--output", str(tmp_path / "out.csv")]) == 2

    def test_estimate_k(self, tmp_path, model_config, capsys):
        prefix = str(tmp_path / "gen")
        main(["generate", "--config", str(model_config), "--output", prefix])
        capsys.readouterr()
        assert main(["estimate-k", "--input", f"{prefix}_omega.txt",
                     "--m", "6", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_suggestion"] == 2
        assert len(payload["singular_values"]) == 6

    def test_simulate_json_is_strict_when_every_replicate_fails(self, tmp_path, capsys):
        # dscore needs two clusters on a side, so each of its replicates fails
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({
            "model": "bidfm", "kind": "bernoulli", "mixing": [[1.0]], "k_r": 1, "k_c": 1,
            "n_r": 30, "n_c": 45, "rho_grid": [0.5], "replicates": 2,
            "algorithms": ["bisc", "dscore"]}))
        assert main(["simulate", "--config", str(path), "--format", "json"]) == 0
        bisc, dscore = json.loads(capsys.readouterr().out, parse_constant=_reject)["points"]
        assert (dscore["replicates"], dscore["failed"]) == (0, 2)
        assert [dscore[key] for key in ("mean_error", "se_nmi", "mean_ari")] == [None] * 3
        assert bisc["mean_error"] == 0.0

    def test_estimate_k_json_is_strict_beyond_the_float_range(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        fileio.write_matrix(path, np.full((2, 2), 1e308))
        assert main(["estimate-k", "--input", str(path), "--m", "2", "--format", "json"]) == 0
        out = capsys.readouterr().out
        first, second = json.loads(out, parse_constant=_reject)["singular_values"]
        assert first is None and math.isfinite(second)
        assert main(["estimate-k", "--input", str(path), "--m", "2"]) == 0
        assert "\n1,inf\n" in capsys.readouterr().out

    def test_preprocess(self, tmp_path, capsys):
        a = np.ones((4, 4))
        a[2, :] = 0.0
        a[:, 2] = 0.0
        src = tmp_path / "a.txt"
        fileio.write_matrix(src, a)
        prefix = str(tmp_path / "filtered")
        assert main(["preprocess", "--input", str(src), "--mode", "both-or",
                     "--output", prefix]) == 0
        capsys.readouterr()
        filtered = fileio.read_matrix(f"{prefix}_matrix.txt")
        assert filtered.shape == (3, 3)
        indices = json.loads((tmp_path / "filtered_indices.json").read_text())
        assert indices["zero_degree_both"] == [3]

    @pytest.mark.parametrize("command", list(CSV_FROM_JSON))
    def test_csv_and_json_reports_agree(self, tmp_path, model_config, capsys, command):
        prefix = str(tmp_path / "gen")
        assert main(["generate", "--config", str(model_config), "--output", prefix]) == 0
        (tmp_path / "sim.json").write_text(json.dumps({
            "model": "bidfm", "kind": "bernoulli", "n_r": 30, "n_c": 45,
            "rho_grid": [0.6, 0.9], "replicates": 2, "algorithms": ["bisc", "dscore"]}))
        (tmp_path / "theory.json").write_text(json.dumps({"inputs": THEORY_INPUTS}))
        labels = [f"{prefix}_row_labels.txt", f"{prefix}_col_labels.txt"]
        args = {
            "evaluate": ["--est-rows", labels[0], "--truth-rows", labels[0],
                         "--est-cols", labels[1], "--truth-cols", labels[1]],
            "simulate": ["--config", str(tmp_path / "sim.json")],
            "estimate-k": ["--input", f"{prefix}_adjacency.txt", "--m", "5"],
            "theory": ["--config", str(tmp_path / "theory.json")],
        }[command]
        reports = {}
        for fmt in ("csv", "json"):
            out = tmp_path / f"report.{fmt}"
            assert main([command, *args, "--format", fmt, "--output", str(out)]) == 0
            reports[fmt] = out.read_text()
        assert reports["csv"] == CSV_FROM_JSON[command](json.loads(reports["json"]))

    def test_theory_subcommand(self, tmp_path, capsys):
        config = {
            "model": "bidfm",
            "c_alpha": 1.0,
            "inputs": {
                "n_r": 200, "n_c": 300, "k_r": 2, "k_c": 3,
                "sigma_min_mixing": 0.5, "gamma": 1.0, "tau": 1.0,
                "n_r_min": 90, "n_r_max": 110, "n_c_min": 95, "n_c_max": 105,
                "rho": 0.5, "delta_c": 0.2,
            },
        }
        path = tmp_path / "theory.json"
        path.write_text(json.dumps(config))
        assert main(["theory", "--config", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["assumption_holds"] is True
        assert payload["spectral_deviation_bound"] > 0

    def test_theory_subcommand_degree_corrected(self, tmp_path, capsys):
        path = tmp_path / "theory.json"
        path.write_text(json.dumps({"model": "bidcdfm", "inputs": THEORY_INPUTS,
                                    "c_alpha": 2.0}))
        assert main(["theory", "--config", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        inputs = fileio.theory_inputs_from_config(THEORY_INPUTS)
        check = check_assumption("bidcdfm", inputs)
        envelope = error_envelope("bidcdfm", inputs)
        assert payload == {
            "model": "bidcdfm", "assumption_holds": check.holds,
            "assumption_ratio": check.ratio, "assumption_note": "",
            "spectral_deviation_bound": deviation_bound("bidcdfm", inputs, 2.0),
            "row_error_envelope": envelope.f_r, "col_error_envelope": envelope.f_c,
        }

    def test_theory_reports_the_first_bad_constant(self, tmp_path, capsys):
        path = tmp_path / "theory.json"
        path.write_text(json.dumps({"inputs": THEORY_INPUTS, "c_alpha": -1.0, "c": 0}))
        assert main(["theory", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "data error: 'c_alpha' must be a positive real within the float range, got -1.0\n")

    def test_theory_missing_inputs_named(self, tmp_path, capsys):
        inputs = {k: v for k, v in THEORY_INPUTS.items()
                  if k not in ("theta_r_min", "theta_c_l1")}
        path = tmp_path / "theory.json"
        path.write_text(json.dumps({"model": "bidcdfm", "inputs": inputs}))
        assert main(["theory", "--config", str(path)]) == 2
        assert "needs theta_c_l1" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [
        BiDFMParams(Membership([1, 1, 1, 1]), Membership([1, 2, 1, 2]), [[1.0, 1.0]], 0.5),
        BiDCDFMParams(Membership([1, 1, 1, 1]), Membership([1, 2, 1, 2]), [[1.0, 0.5]],
                      [0.5] * 4, [0.5] * 4),
    ], ids=["bidfm", "bidcdfm"])
    def test_theory_zero_column_gap(self, tmp_path, capsys, params):
        # two column clusters whose population rows coincide: the report
        # still comes out, with an infinite column envelope (null in JSON)
        model = "bidfm" if isinstance(params, BiDFMParams) else "bidcdfm"
        inputs = dataclasses.asdict(theory_inputs(params, DistributionSpec("bernoulli")))
        path = tmp_path / "theory.json"
        path.write_text(json.dumps({"model": model, "inputs": inputs}))
        assert main(["theory", "--config", str(path), "--format", "json"]) == 0
        # standard JSON: Infinity or NaN would reach parse_constant and fail
        payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert payload["col_error_envelope"] is None
        assert math.isfinite(payload["row_error_envelope"])

    @pytest.mark.parametrize("key, value", [
        ("tau", 1e308),  # tau**2 overflows
        ("sigma_min_mixing", 1e-200),  # its square underflows to a zero denominator
        ("n_r", 10**400),  # no float holds it
    ])
    def test_theory_outside_float_range(self, tmp_path, capsys, key, value):
        path = tmp_path / "theory.json"
        path.write_text(json.dumps({"inputs": {**THEORY_INPUTS, key: value}}))
        assert main(["theory", "--config", str(path)]) == 2
        assert "is outside the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["bidfm", "bidcdfm"])
    @pytest.mark.parametrize("key", [field.name for field in dataclasses.fields(TheoryInputs)
                                     if field.name != "tau_is_empirical"] + ["c_alpha", "c"])
    @pytest.mark.parametrize("value", [1e308, 1e-200, 10**400],
                             ids=["1e308", "1e-200", "10**400"])
    def test_theory_extreme_values(self, tmp_path, capsys, model, key, value):
        # a report or a data error, never a traceback; every numeric key
        # admits a JSON integer, so 10**400 too
        config = {"model": model, "inputs": {**THEORY_INPUTS, "delta_c": 0.2,
                                             "delta_c_star": 1.2, "m_v_c": 0.9}}
        if key in ("c_alpha", "c"):
            config[key] = value
        else:
            config["inputs"][key] = value
        path = tmp_path / "theory.json"
        path.write_text(json.dumps(config))
        assert main(["theory", "--config", str(path)]) in (0, 2)

    @pytest.mark.parametrize("config, csv, json_text", [
        ({"inputs": {**THEORY_INPUTS, "k_c": 3, "delta_c": 0.2}},
         "# bidfm theory report v1\n"
         "quantity,value\n"
         "model,bidfm\n"
         "assumption_holds,True\n"
         "assumption_ratio,24.136678874100372\n"
         "assumption_note,\n"
         "spectral_deviation_bound,30.531806608245912\n"
         "row_error_envelope,5.787148282128602\n"
         "col_error_envelope,1.2682873670249368\n",
         '{\n'
         '  "model": "bidfm",\n'
         '  "assumption_holds": true,\n'
         '  "assumption_ratio": 24.136678874100372,\n'
         '  "assumption_note": "",\n'
         '  "spectral_deviation_bound": 30.531806608245912,\n'
         '  "row_error_envelope": 5.787148282128602,\n'
         '  "col_error_envelope": 1.2682873670249368\n'
         '}\n'),
        ({"model": "bidcdfm", "inputs": THEORY_INPUTS, "c_alpha": 2.0, "c": 0.5},
         "# bidfm theory report v1\n"
         "quantity,value\n"
         "model,bidcdfm\n"
         "assumption_holds,True\n"
         "assumption_ratio,30.41221538136647\n"
         "assumption_note,\n"
         "spectral_deviation_bound,68.54373583637805\n"
         "row_error_envelope,47.25090829392361\n"
         "col_error_envelope,22.09133374780844\n",
         '{\n'
         '  "model": "bidcdfm",\n'
         '  "assumption_holds": true,\n'
         '  "assumption_ratio": 30.41221538136647,\n'
         '  "assumption_note": "",\n'
         '  "spectral_deviation_bound": 68.54373583637805,\n'
         '  "row_error_envelope": 47.25090829392361,\n'
         '  "col_error_envelope": 22.09133374780844\n'
         '}\n'),
        ({"model": "bidcdfm", "inputs": {**{k: v for k, v in THEORY_INPUTS.items()
                                            if k != "tau"},
                                         "k_c": 3, "delta_c_star": 1.2, "m_v_c": 0.9}},
         "# bidfm theory report v1\n"
         "quantity,value\n"
         "model,bidcdfm\n"
         "assumption_holds,None\n"
         "assumption_ratio,None\n"
         "assumption_note,tau is unbounded for this law; substitute an empirical "
         "max|A - Omega| (heuristic) to obtain a verdict\n"
         "spectral_deviation_bound,34.271867918189024\n"
         "row_error_envelope,94.50181658784722\n"
         "col_error_envelope,113.63854808543434\n",
         '{\n'
         '  "model": "bidcdfm",\n'
         '  "assumption_holds": null,\n'
         '  "assumption_ratio": null,\n'
         '  "assumption_note": "tau is unbounded for this law; substitute an empirical '
         'max|A - Omega| (heuristic) to obtain a verdict",\n'
         '  "spectral_deviation_bound": 34.271867918189024,\n'
         '  "row_error_envelope": 94.50181658784722,\n'
         '  "col_error_envelope": 113.63854808543434\n'
         '}\n'),
    ], ids=["bidfm", "bidcdfm", "bidcdfm-unbounded-tau"])
    def test_theory_report_bytes(self, tmp_path, capsys, config, csv, json_text):
        # both report formats of both models, byte for byte
        path = tmp_path / "theory.json"
        path.write_text(json.dumps(config))
        assert main(["theory", "--config", str(path)]) == 0
        assert capsys.readouterr().out == csv
        assert main(["theory", "--config", str(path), "--format", "json"]) == 0
        assert capsys.readouterr().out == json_text

    def test_degree_corrected_sweep_out_of_law_writes_nothing(self, tmp_path, capsys):
        # thetas reach up to sqrt(rho), so rho = 3 breaks the Bernoulli range
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({
            "model": "bidcdfm", "kind": "bernoulli", "mixing": "P1", "n_r": 60, "n_c": 90,
            "rho_grid": [0.5, 3.0], "replicates": 1, "algorithms": ["bisc"]}))
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 2
        assert "rho = 3.0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main([]) == 1
        assert main(["detect", "--input", "x", "--alg", "warp",
                     "--kr", "2", "--kc", "2"]) == 1

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        assert main(["detect", "--input", str(tmp_path / "nope.txt"),
                     "--alg", "bisc", "--kr", "2", "--kc", "2"]) == 2

    def test_detect_on_large_zero_matrix(self, tmp_path, capsys):
        # above the dense-SVD size cutoff, where Lanczos cannot start
        path = tmp_path / "zeros.txt"
        fileio.write_matrix(path, np.zeros((700, 800)))
        prefix = str(tmp_path / "det")
        assert main(["detect", "--input", str(path), "--alg", "nbisc",
                     "--kr", "2", "--kc", "3", "--output", prefix]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert len(fileio.read_labels(prefix + "_row_labels.txt")[1]) == 700

    @pytest.mark.parametrize("command, config", [
        ("theory", {"inputs": {"n_r": 10, "bogus": 1}}),
        ("generate", {"n_r": "abc", "n_c": 6, "k_r": 2, "k_c": 3,
                      "mixing": "P1", "rho": 0.5}),
        ("generate", [1, 2]),
        ("theory", [1, 2]),
        ("simulate", {"model": "bidfm", "kind": "bernoulli", "n_r": 30,
                      "n_c": 45, "rho_grid": 5}),
        ("generate", {"n_r": 6, "n_c": 6, "k_r": 2, "k_c": 3, "mixing": "P1",
                      "rho": 0.5, "distribution": 5}),
        ("generate", {"model": "bidcdfm", "n_r": 6, "n_c": 6, "k_r": 2, "k_c": 3,
                      "mixing": "P1", "rho": 0.5, "theta": 5}),
        ("theory", {"inputs": THEORY_INPUTS, "c_alpha": "x"}),
        ("theory", {"inputs": THEORY_INPUTS, "c": "x"}),
        ("theory", {"inputs": THEORY_INPUTS, "model": "foo"}),
        ("simulate", {"model": "bidfm", "kind": "bernoulli", "n_r": 30,
                      "n_c": 45, "rho_grid": ["a"]}),
        ("simulate", {"model": "bidfm", "kind": "bernoulli", "rho": 0.5,
                      "n_grid": ["a"]}),
        ("simulate", {"model": "bidfm", "kind": "normal", "mixing": "P2", "n_r": 30,
                      "n_c": 45, "rho": 0.5, "sigma2_grid": ["a"]}),
        ("generate", {**MODEL, "k_r": "2"}),
        ("generate", {**MODEL, "membership_seed": True}),
        ("generate", {**MODEL, "rho": "0.5"}),
        ("generate", {**MODEL, "membership_seed": 1.9}),
        ("generate", {**MODEL, "row_labels": [1.7, 2, 1, 2]}),
        ("generate", {**MODEL, "row_labels": "ab"}),
        ("generate", {**MODEL, "mixing": [["1", 0.2, 0.3], [0.3, 0.8, 0.2]]}),
        ("generate", {**MODEL, "mixing": [[1.0, 0.2, 0.3], [0.3, 0.8]]}),
        ("generate", {**MODEL, "model": "bidcdfm", "theta_row": ["0.5"] * 6,
                      "theta_col": [0.5] * 6}),
        ("generate", {**MODEL, "model": "bidcdfm", "theta": {"seed": 1.5}}),
        ("generate", {k: v for k, v in MODEL.items() if k != "k_r"}),
        ("theory", {"inputs": THEORY_INPUTS, "c_alpha": "2"}),
        ("theory", {"model": "bidfm"}),
        ("generate", {"k_r": 5, "k_c": 3, "mixing": "P1", "row_labels": [1, 2, 1, 2],
                      "col_labels": [1, 2, 3, 1], "rho": 0.5}),
        ("simulate", {**SIMULATION, "algorithms": ["nbisc", "nbisc", "bisc"]}),
        ("simulate", {**SIMULATION, "algorithms": []}),
        ("generate", {**MODEL, "n_r": 10**29}),
        ("simulate", {**SIMULATION, "replicates": 10**29, "n_r": 10**29}),
        *((command, config) for command, config, _ in PROBES.values()),
    ], ids=["unknown-key", "string-count", "list-model", "list-theory", "number-grid",
            "number-distribution", "number-theta", "string-c-alpha", "string-c",
            "unknown-theory-model", "string-rho-grid", "string-n-grid",
            "string-sigma2-grid", "string-k-r", "bool-seed", "string-rho",
            "float-membership-seed", "float-labels", "string-labels",
            "string-mixing-entry", "ragged-mixing", "string-theta", "float-theta-seed",
            "missing-key", "numeric-string-c-alpha", "missing-theory-inputs",
            "labels-fewer-than-k-r", "algorithms-repeated", "algorithms-empty",
            "unindexable-n-r", "unindexable-sizes", *PROBES])
    def test_malformed_config_is_data_error(self, tmp_path, command, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = subprocess.run(
            [sys.executable, "-m", "bidfm", command, "--config", str(path),
             "--output", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command, config, key", PROBES.values(), ids=PROBES)
    def test_rejected_config_names_its_key(self, tmp_path, capsys, command, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, stubbed", [
        ("generate", "expected_adjacency"), ("simulate", "run_simulation"),
    ])
    def test_out_of_memory_is_data_error(self, tmp_path, monkeypatch, capsys,
                                         model_config, command, stubbed):
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(f"bidfm.cli.{stubbed}", allocate)
        args = {"generate": ["--config", str(model_config)],
                "simulate": ["--preset", "sim1a", "--replicates", "1"]}[command]
        assert main([command, *args, "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "7.28 TiB" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["detect", "simulate", "generate",
                                         "generate-without-distribution"])
    def test_negative_seed_is_data_error(self, tmp_path, model_config, command):
        matrix = tmp_path / "a.txt"
        fileio.write_matrix(matrix, np.eye(6) + 0.1)
        omega_only = tmp_path / "omega_only.json"
        omega_only.write_text(json.dumps(MODEL))  # no distribution: nothing is sampled
        args = {
            "detect": ["detect", "--input", str(matrix), "--alg", "bisc", "--kr", "2",
                       "--kc", "2"],
            "simulate": ["simulate", "--preset", "sim1a", "--replicates", "1"],
            "generate": ["generate", "--config", str(model_config)],
            "generate-without-distribution": ["generate", "--config", str(omega_only)],
        }[command]
        result = subprocess.run(
            [sys.executable, "-m", "bidfm", *args, "--seed", "-1",
             "--output", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "seed must be a non-negative integer" in result.stderr

    @pytest.mark.parametrize("args, bad", [
        (["detect", "--alg", "bisc", "--kr", "2", "--kc", "2", "--input"], "latin-1"),
        (["simulate", "--config"], "latin-1"),
        (["estimate-k", "--input"], "directory"),
        (["simulate", "--config"], "directory"),
    ], ids=["detect-latin-1", "simulate-latin-1", "estimate-k-directory",
            "simulate-directory"])
    def test_unreadable_input_is_data_error(self, tmp_path, args, bad):
        path = tmp_path / "input"
        if bad == "directory":
            path.mkdir()
        else:
            path.write_bytes("caf\xe9".encode("latin-1"))  # not UTF-8
        result = subprocess.run(
            [sys.executable, "-m", "bidfm", *args, str(path),
             "--output", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_bad_matrix_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 2\n")
        assert main(["estimate-k", "--input", str(path)]) == 2

    def test_module_entry_point(self, tmp_path, model_config):
        prefix = str(tmp_path / "sub")
        result = subprocess.run(
            [sys.executable, "-m", "bidfm", "generate",
             "--config", str(model_config), "--output", prefix],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "sub_omega.txt").exists()


# the scipy submodules a cold command loads only when it computes with them;
# in-process tests cannot see a missing load, since earlier tests load them
SCIPY_SUBMODULES = ("scipy.linalg", "scipy.sparse", "scipy.optimize")


def test_cli_import_leaves_scipy_optimize_out():
    """A cold ``import bidfm.cli`` pays for no scipy submodule: not for
    ``scipy.linalg`` and ``scipy.sparse``, which only an SVD uses, nor for
    ``scipy.optimize``, which the package never uses: label matching has a
    solver of its own."""
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys, bidfm.cli; loaded = set({SCIPY_SUBMODULES}) & set(sys.modules); "
         "assert not loaded, loaded"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", ["generate", "theory", "evaluate"])
def test_cold_command_loads_no_scipy_submodule(tmp_path, model_config, command):
    theory = tmp_path / "theory.json"
    theory.write_text(json.dumps({"model": "bidfm", "inputs": THEORY_INPUTS}))
    # label files written directly, so no SVD runs before ``evaluate``
    ids = [str(i) for i in range(1, 9)]
    for name, labels in [("est", [1, 1, 2, 2, 3, 3, 1, 2]), ("truth", [1, 1, 1, 2, 2, 2, 3, 3])]:
        fileio.write_labels(tmp_path / f"{name}.txt", ids, labels)
    args = {"generate": ["generate", "--config", str(model_config),
                         "--output", str(tmp_path / "gen")],
            "theory": ["theory", "--config", str(theory)],
            "evaluate": ["evaluate", "--est-rows", str(tmp_path / "est.txt"),
                         "--truth-rows", str(tmp_path / "truth.txt"),
                         "--est-cols", str(tmp_path / "truth.txt"),
                         "--truth-cols", str(tmp_path / "est.txt")]}[command]
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; from bidfm.cli import main; code = main(sys.argv[1:]); "
         f"loaded = set({SCIPY_SUBMODULES}) & set(sys.modules); "
         "assert not loaded, loaded; sys.exit(code)", *args],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_scoring_loads_no_scipy_submodule():
    """``hamming_error``, ``combined_report`` and ``criterion_f`` match
    labels in numpy: a fresh interpreter that calls them gains no ``scipy.*``
    module beyond those the bare ``scipy`` package loads at import."""
    result = subprocess.run([sys.executable, "-c", """
import sys
from bidfm.metrics import combined_report, criterion_f, hamming_error

before = {name for name in sys.modules if name.startswith("scipy")}
est, truth = [1, 1, 2, 2, 3, 3, 1, 2], [1, 1, 1, 2, 2, 2, 3, 3]
assert hamming_error(est, truth) == 0.375
assert criterion_f(est, truth) == 1.5
combined_report(est, truth, truth, est)
loaded = {name for name in sys.modules if name.startswith("scipy")} - before
assert not loaded, loaded
"""], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("n_r, n_c, alg", [(40, 60, "nbisc"), (120, 150, "nbisc"),
                                           (120, 150, "disim")],
                         ids=["lapack", "lanczos", "laplacian"])
def test_cold_detect_writes_the_in_process_labels(tmp_path, capsys, n_r, n_c, alg):
    """A fresh ``bidfm detect`` loads the scipy it needs on first use and
    writes the same bytes as a run in an interpreter that had it loaded."""
    config = tmp_path / "model.json"
    config.write_text(json.dumps({**MODEL, "n_r": n_r, "n_c": n_c, "membership_seed": 3,
                                  "distribution": {"kind": "bernoulli"}}))
    assert main(["generate", "--config", str(config), "--seed", "7",
                 "--output", str(tmp_path / "gen")]) == 0
    args = ["detect", "--input", str(tmp_path / "gen_adjacency.txt"), "--alg", alg,
            "--kr", "2", "--kc", "3", "--seed", "1", "--output"]
    assert main([*args, str(tmp_path / "warm")]) == 0
    capsys.readouterr()
    result = subprocess.run([sys.executable, "-m", "bidfm", *args, str(tmp_path / "cold")],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    for side in ("row", "col"):
        assert ((tmp_path / f"cold_{side}_labels.txt").read_bytes()
                == (tmp_path / f"warm_{side}_labels.txt").read_bytes())


@pytest.mark.parametrize("alg", ["bisc", "nbisc", "disim", "dscore", "rdscore"])
def test_detect_on_a_subnormal_matrix(tmp_path, alg):
    """Every entry below 2**-1024: ``detect`` writes labels with warnings
    raised as errors, where the SVD's scale factor used to overflow."""
    path = tmp_path / "tiny.txt"
    path.write_text(f"{fileio.MATRIX_HEADER}\n2 2\n1e-310 0\n0 2e-310\n")
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "bidfm", "detect", "--input", str(path),
         "--alg", alg, "--kr", "2", "--kc", "2", "--output", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert fileio.read_labels(tmp_path / "out_row_labels.txt")[1].tolist() == [1, 2]


def test_sparse_input_after_a_cold_import():
    """``scipy.sparse`` imported after ``bidfm`` still makes a sparse input:
    a CSR array takes the sparse SVD path, and a dense-only caller rejects it."""
    result = subprocess.run([sys.executable, "-c", """
import bidfm
import numpy as np
import scipy.sparse
from bidfm.errors import DimensionError
from bidfm.linalg import as_matrix, truncated_svd

rng = np.random.default_rng(0)
a = scipy.sparse.csr_array(np.where(rng.random((120, 150)) < 0.02, 1.0, 0.0))
assert truncated_svd(a, 2).path == "sparse"
try:
    as_matrix(a)
except DimensionError:
    pass
else:
    raise AssertionError("as_matrix accepted a sparse matrix")
"""], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
