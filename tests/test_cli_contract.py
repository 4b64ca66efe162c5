"""The CLI's failure contract: whatever files it is given, every subcommand
returns 0, 1, 2 or 3 and lets no exception escape.

Hypothesis writes small, often malformed matrix, label and JSON files and
calls ``cli.main`` on them in-process.  Every size it draws is small, apart
from values that no array can hold (``10**29``), so no example asks for a
large allocation.  Labels come from the whole int64 range and beyond it
(``99999999999999999999``).
"""
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bidfm.cli import main
from bidfm.detect import ALGORITHMS
from bidfm.experiments import FILTER_MODES

HUGE = 10**29  # more than any numpy dimension
BEYOND_FLOAT = 10**400  # more than any float holds
HUGE_LABEL = "99999999999999999999"  # more than int64 holds

NUMBER = st.sampled_from(["0", "1", "2", "0.5", "-1", "1e308", "-1e308"])
BAD_VALUE = st.sampled_from(["nan", "inf", "x", "1,2", ""])
BAD_DIMS = st.sampled_from(["0 2", "-1 2", "2", "a b", "2 2 2", f"{HUGE} 1", f"1 {HUGE}",
                            "1 100000000"])
LABEL = st.sampled_from(["1", "2", "3"]) | st.integers(1, 2**63 - 1).map(str)
COUNT = st.sampled_from(["1", "2", "3", "0", "-1"])
BAD_LABEL = st.sampled_from(["0", "-1", "1.5", "x", "", HUGE_LABEL])


@st.composite
def matrices(draw):
    """A dense-matrix file of at most 4 x 4 values with at most one flaw:
    bad dimensions, a bad value, a missing row, or text of any kind."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    lines = [f"{rows} {cols}", *(" ".join(draw(st.lists(NUMBER, min_size=cols,
                                                         max_size=cols)))
                                 for _ in range(rows))]
    flaw = draw(st.sampled_from([None, None, "dims", "value", "row", "text"]))
    if flaw == "dims":
        lines[0] = draw(BAD_DIMS)
    elif flaw == "value":
        lines[-1] = " ".join([*lines[-1].split()[1:], draw(BAD_VALUE)])
    elif flaw == "row":
        lines.pop()
    elif flaw == "text":
        return draw(st.text(max_size=30))
    return "\n".join(["# bidfm dense matrix v1", *lines]) + "\n"


@st.composite
def label_files(draw, n):
    """A label file for nodes ``1..n`` with at most one flaw: a bad label,
    a repeated id, a foreign id, or text of any kind."""
    lines = [[str(i), draw(LABEL)] for i in range(1, n + 1)]
    flaw = draw(st.sampled_from([None, None, None, "label", "repeat", "id", "text"]))
    if flaw == "label":
        lines[-1][1] = draw(BAD_LABEL)
    elif flaw == "repeat":
        lines.append(list(lines[0]))
    elif flaw == "id":
        lines[-1][0] = "a"
    elif flaw == "text":
        return draw(st.text(max_size=20))
    return "".join(f"{node}\t{label}\n" for node, label in lines)


# JSON values a mutated config key may take: small numbers, names, lists.
# Integers stay small: a huge size is one @example below, and a huge
# replicate count would run as long as it asks.
SCALAR = st.one_of(
    st.integers(-2, 6), st.sampled_from([0.0, 0.5, 1.5, -0.5, 1e308, float("nan"),
                                         float("inf")]),
    st.sampled_from(["P1", "P2", "bidfm", "bidcdfm", "bernoulli", "normal", "signed",
                     "poisson", "unbounded", "bisc", "x"]),
    st.booleans(), st.none(),
)
JSON_VALUE = st.one_of(
    SCALAR, st.lists(SCALAR, max_size=4),
    st.lists(st.lists(st.sampled_from([1.0, 0.5, -0.3, 0.0]), min_size=1, max_size=3),
             min_size=1, max_size=3),
    st.dictionaries(st.sampled_from(["seed", "floor", "kind", "sigma2", "x"]), SCALAR,
                    max_size=2),
)

# one valid config per JSON-reading subcommand, and the keys a mutation may touch
BASES = {
    "generate": {"model": "bidcdfm", "n_r": 6, "n_c": 9, "k_r": 2, "k_c": 3, "mixing": "P1",
                 "rho": 0.5, "membership_seed": 1, "theta": {"seed": 2, "floor": 0.05},
                 "distribution": {"kind": "bernoulli"}},
    "simulate": {"model": "bidfm", "kind": "bernoulli", "mixing": "P1", "n_r": 12,
                 "n_c": 15, "rho_grid": [0.6], "replicates": 1, "algorithms": ["bisc"]},
    "theory": {"model": "bidfm", "inputs": {
        "n_r": 20, "n_c": 30, "k_r": 2, "k_c": 2, "sigma_min_mixing": 0.5, "gamma": 1.0,
        "tau": 1.0, "n_r_min": 9, "n_r_max": 11, "n_c_min": 14, "n_c_max": 16, "rho": 0.5,
        "theta_r_min": 0.5, "theta_r_max": 0.9, "theta_c_min": 0.5, "theta_c_max": 0.9,
        "theta_r_l1": 14.0, "theta_c_l1": 21.0}},
}
KEYS = {
    "generate": [*BASES["generate"], "row_labels", "col_labels", "theta_row", "theta_col"],
    "simulate": [*BASES["simulate"], "k_r", "k_c", "rho", "sigma2", "n_grid", "sigma2_grid",
                 "base_seed", "name"],
    "theory": ["model", "c_alpha", "c", *(f"inputs.{key}" for key in BASES["theory"]["inputs"])],
}


def _mutated(command, edits):
    """``command``'s base config with each ``(key, value)`` edit applied; a
    value of ``...`` deletes the key, and ``inputs.key`` edits the theory
    inputs."""
    config = json.loads(json.dumps(BASES[command]))
    for key, value in edits:
        target = config["inputs"] if key.startswith("inputs.") else config
        key = key.removeprefix("inputs.")
        if value is ...:
            target.pop(key, None)
        else:
            target[key] = value
    return config


@st.composite
def invocations(draw):
    """``(argv, files)``: a subcommand's arguments with ``{name}`` standing
    for the path of each file in ``files`` (name -> text)."""
    command = draw(st.sampled_from(["generate", "detect", "evaluate", "simulate",
                                    "estimate-k", "preprocess", "theory"]))
    if command in BASES:
        edits = draw(st.lists(st.tuples(st.sampled_from([*KEYS[command], "bogus"]),
                                        st.just(...) | JSON_VALUE), max_size=2))
        text = draw(st.just(json.dumps(_mutated(command, edits)))
                    | JSON_VALUE.map(json.dumps) | st.text(max_size=20))
        return [command, "--config", "{config}"], {"config": text}
    if command == "evaluate":
        names = ["est_rows", "truth_rows", "est_cols", "truth_cols"]
        sizes = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
        files = {name: draw(label_files(sizes[i // 2])) for i, name in enumerate(names)}
        argv = ["evaluate", *(arg for name in names
                              for arg in (f"--{name.replace('_', '-')}", f"{{{name}}}"))]
        return argv, files
    argv = [command, "--input", "{matrix}"]
    if command == "detect":
        argv += ["--alg", draw(st.sampled_from(ALGORITHMS)),
                 "--kr", draw(COUNT), "--kc", draw(COUNT)]
    elif command == "estimate-k":
        argv += ["--m", draw(COUNT)]
    else:
        argv += ["--mode", draw(st.sampled_from(FILTER_MODES))]
    return argv, {"matrix": draw(matrices())}


def _run(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = os.path.join(tmp, f"{name}.txt")
            with open(paths[name], "w", encoding="utf-8") as handle:
                handle.write(text)
        args = [arg.format(**paths) for arg in argv]
        return main([*args, "--output", os.path.join(tmp, "out")])


REPEATED_ID = "1\t1\n2\t2\n1\t1\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(invocations())
@example((["evaluate", "--est-rows", "{ok}", "--truth-rows", "{bad}", "--est-cols", "{ok}",
           "--truth-cols", "{ok}"], {"ok": "1\t1\n2\t2\n3\t1\n", "bad": REPEATED_ID}))
@example((["evaluate", "--est-rows", "{bad}", "--truth-rows", "{ok}", "--est-cols", "{ok}",
           "--truth-cols", "{ok}"], {"ok": "1\t1\n2\t2\n", "bad": "1\t0\n2\t1\n"}))
@example((["evaluate", "--est-rows", "{bad}", "--truth-rows", "{ok}", "--est-cols", "{ok}",
           "--truth-cols", "{ok}"], {"ok": "1\t1\n2\t2\n", "bad": f"1\t{HUGE_LABEL}\n2\t1\n"}))
@example((["evaluate", "--est-rows", "{ok}", "--truth-rows", "{huge}", "--est-cols", "{ok}",
           "--truth-cols", "{ok}"], {"ok": "1\t1\n2\t2\n3\t1\n",
                                     "huge": f"1\t1\n2\t{2**62}\n3\t1\n"}))
@example((["detect", "--input", "{m}", "--alg", "bisc", "--kr", "1", "--kc", "1"],
          {"m": "2 2\n1 2\n1 x\n"}))
@example((["detect", "--input", "{m}", "--alg", "bisc", "--kr", "1", "--kc", "1"],
          {"m": f"1 {HUGE}\n1 2\n"}))
# values near the float maximum: a degree, a singular value, a gap ratio or
# a shifted entry that overflows
@example((["preprocess", "--input", "{m}", "--mode", "rows"], {"m": "1 2\n1e308 1e308\n"}))
@example((["detect", "--input", "{m}", "--alg", "bisc", "--kr", "1", "--kc", "1"],
          {"m": "2 3\n0 0 1e308\n1e308 1e308 1e308\n"}))
@example((["estimate-k", "--input", "{m}", "--m", "2"], {"m": "2 3\n0 0 0.5\n0 1e308 0\n"}))
@example((["detect", "--input", "{m}", "--alg", "disim", "--kr", "1", "--kc", "1"],
          {"m": "1 1\n1e308\n"}))
@example((["detect", "--input", "{m}", "--alg", "disim", "--kr", "1", "--kc", "1"],
          {"m": "1 2\n-1e308 7.9e307\n"}))
@example((["generate", "--config", "{c}"],
          {"c": json.dumps(_mutated("generate", [("n_r", HUGE)]))}))
# integers where a float goes, beyond the float range, and a cluster count
# beyond any index numpy can hold
@example((["generate", "--config", "{c}"],
          {"c": json.dumps(_mutated("generate", [("rho", BEYOND_FLOAT)]))}))
@example((["generate", "--config", "{c}"], {"c": json.dumps(_mutated(
    "generate", [("theta", {"floor": BEYOND_FLOAT})]))}))
@example((["generate", "--config", "{c}"], {"c": json.dumps(_mutated(
    "generate", [("distribution", {"kind": "normal", "sigma2": BEYOND_FLOAT})]))}))
@example((["simulate", "--config", "{c}"],
          {"c": json.dumps(_mutated("simulate", [("rho_grid", [BEYOND_FLOAT])]))}))
@example((["generate", "--config", "{c}"], {"c": json.dumps(_mutated(
    "generate", [("k_r", HUGE), ("row_labels", [1, 2, 1, 2, 1, 2])]))}))
@example((["simulate", "--config", "{c}"], {"c": json.dumps(_mutated(
    "simulate", [("model", "bidcdfm"), ("rho_grid", [0.5, 3.0])]))}))
@example((["simulate", "--config", "{c}"],
          {"c": json.dumps(_mutated("simulate", [("replicates", 2.5)]))}))
@example((["theory", "--config", "{c}"], {"c": json.dumps(_mutated(
    "theory", [("model", "bidcdfm"), ("inputs.theta_r_l1", ...)]))}))
def test_every_input_gets_an_exit_code(invocation):
    argv, files = invocation
    assert _run(argv, files) in (0, 1, 2, 3)
