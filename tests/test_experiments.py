import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from bidfm import experiments, fileio
from bidfm.cli import main
from bidfm.detect import ALGORITHMS, nbisc
from bidfm.errors import (
    BidfmError, ConvergenceError, DimensionError, InfeasibleError, ValidationError,
)
from bidfm.experiments import (
    PRESET_NAMES,
    SimulationConfig,
    degree_profiles,
    estimate_k_eigengap,
    filter_zero_degree,
    preset,
    row_column_similarity,
    run_simulation,
)
from bidfm.fileio import params_from_config, read_labels, read_matrix
from bidfm.metrics import ari, hamming_error, nmi
from bidfm.model import P1, P2, BiDFMParams, sample_memberships, expected_adjacency
from bidfm.sampling import DistributionSpec, sample_adjacency


def tiny_config(**overrides):
    base = dict(
        model="bidfm", kind="bernoulli", mixing=P1, n_r=30, n_c=45,
        rho_grid=(0.5, 0.9), replicates=3, algorithms=("bisc", "nbisc"),
        base_seed=11,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestPresets:
    def test_sim2c_definition(self):
        config = preset("sim2c")
        assert config.model == "bidfm"
        assert config.kind == "normal"
        assert (config.n_r, config.n_c) == (200, 300)
        assert config.rho == 0.5
        assert config.sigma2_grid == tuple(
            pytest.approx(v) for v in np.arange(0.2, 2.01, 0.2)
        )
        assert config.replicates == 50
        assert np.array_equal(config.mixing, P2)

    def test_sim3b_definition(self):
        config = preset("sim3b")
        assert config.kind == "signed"
        assert (config.n_r, config.n_c) == (1000, 1500)
        assert config.rho_grid == tuple(
            pytest.approx(v) for v in np.arange(0.1, 1.01, 0.1)
        )

    def test_sim1d_definition(self):
        config = preset("sim1d")
        assert config.model == "bidcdfm"
        assert config.rho == 0.5
        assert config.n_grid == (500, 1000, 1500, 2000, 2500, 3000)

    def test_sim3d_grid_step(self):
        assert preset("sim3d").n_grid[:3] == (500, 750, 1000)

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            preset("sim9z")

    def test_all_presets_cluster_counts(self):
        for name in ("sim1a", "sim2b", "sim3c"):
            config = preset(name)
            assert (config.k_r, config.k_c) == (2, 3)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_builds(self, name):
        # the law admits rho * mixing at every point, for both models
        assert preset(name).name == name

    def test_overrides_merged_into_one_build(self):
        config = preset("sim1b", rho_grid=(0.4,), replicates=2, n_r=60, n_c=90)
        assert repr(config) == repr(SimulationConfig(
            name="sim1b", model="bidcdfm", kind="bernoulli", mixing=P1, n_r=60, n_c=90,
            rho_grid=(0.4,), replicates=2))

    def test_override_checked(self):
        with pytest.raises(ValidationError, match="rho = 2.0"):
            preset("sim1b", rho_grid=(0.5, 2.0))


class TestConfigValidation:
    def test_exactly_one_grid(self):
        with pytest.raises(ValidationError):
            tiny_config(n_grid=(10, 20))  # two grids
        with pytest.raises(ValidationError):
            tiny_config(rho_grid=None)  # no grid

    def test_bernoulli_needs_nonnegative_mixing(self):
        with pytest.raises(ValidationError):
            tiny_config(mixing=P2)

    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError):
            tiny_config(algorithms=("bisc", "magic"))

    @pytest.mark.parametrize("base_seed", [-1, 1.5, True])
    def test_bad_base_seed_rejected_when_built(self, base_seed):
        with pytest.raises(ValidationError):
            tiny_config(base_seed=base_seed)

    def test_normal_needs_sigma2(self):
        with pytest.raises(ValidationError):
            tiny_config(kind="normal", mixing=P2)

    @pytest.mark.parametrize("overrides, message", [
        (dict(model="sbm"), "unknown model 'sbm'"),
        (dict(n_r=None), "fixed dimensions n_r, n_c are required"),
        (dict(n_c=None), "fixed dimensions n_r, n_c are required"),
        (dict(rho_grid=None, n_grid=(30, 40)), "rho is required when not swept"),
    ], ids=["unknown-model", "no-n-r", "no-n-c", "no-rho"])
    def test_incomplete_config_rejected(self, overrides, message):
        with pytest.raises(ValidationError, match=message):
            tiny_config(**overrides)

    @pytest.mark.parametrize("overrides", [
        dict(kind="cauchy"),
        dict(kind="bernoulli", sigma2=1.0),
        dict(kind="normal", mixing=P2, n_r=200, n_c=300, rho=0.5, rho_grid=None,
             sigma2_grid=(1.0, 2.0, -1.0)),
        dict(rho_grid=(0.5, 1.5)),
        dict(rho_grid=(0.5, -0.5)),
        dict(model="bidcdfm", rho_grid=(0.5, -0.5)),
        dict(rho=0.0, rho_grid=None, n_grid=(30, 40)),
        # thetas stay below sqrt(rho), so rho * mixing bounds every entry
        dict(model="bidcdfm", rho_grid=(0.5, 3.0)),
    ], ids=["unknown-kind", "sigma2-on-bernoulli", "negative-sigma2-in-grid",
            "rho-times-mixing-above-one", "negative-rho-in-grid",
            "negative-rho-in-degree-corrected-grid", "zero-fixed-rho",
            "degree-corrected-rho-times-mixing-above-one"])
    def test_bad_law_rejected_when_built(self, overrides):
        with pytest.raises(ValidationError):
            tiny_config(**overrides)

    # each point is read as `bidfm generate` reads it, so a rule that reader
    # applies fails the sweep when it is built, not when it reaches the point
    @pytest.mark.parametrize("build, error, message", [
        (lambda: preset("sim1c", n_grid=(60, 2), replicates=3), InfeasibleError,
         "cannot place 2 nodes into 3 nonempty clusters"),
        (lambda: preset("sim1a", k_r=3), ValidationError,
         "mixing matrix shape (2, 3) does not match cluster counts (3, 3)"),
        (lambda: tiny_config(mixing=[[1.0, 0.5, 0.5], [1.0, 0.5, 0.5]]), ValidationError,
         "mixing matrix is rank deficient"),
        (lambda: tiny_config(mixing=0.5 * P1), ValidationError, "max|P| must equal 1, got 0.5"),
    ], ids=["node-count-below-k-c", "mixing-shape", "rank-deficient-mixing",
            "max-abs-mixing-one-half"])
    def test_point_that_generate_rejects_fails_the_build(self, build, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("k_r", [2.5, Fraction(2)], ids=["float", "fraction"])
    def test_non_integer_count_gets_the_reader_message(self, k_r):
        with pytest.raises(ValidationError, match="config key 'k_r' has the wrong type"):
            tiny_config(k_r=k_r)

    def test_simulate_rejects_a_bad_point_before_any_replicate(self, tmp_path, capsys,
                                                               monkeypatch):
        def never(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("bidfm.cli.run_simulation", never)
        path, out = tmp_path / "sim.json", tmp_path / "report.csv"
        path.write_text(json.dumps({
            "model": "bidfm", "kind": "bernoulli", "mixing": "P1", "rho": 0.5,
            "n_grid": [50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 2],
            "replicates": 10}))
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 2
        assert "cannot place 2 nodes into 3 nonempty clusters" in capsys.readouterr().err
        assert not out.exists()

    # a value is passed to the reader as given, so its integer rule, not a
    # cast, decides an n (an integral float such as 50.0 included)
    @pytest.mark.parametrize("overrides, message", [
        (dict(rho_grid=None, rho=0.5, n_grid=(float("nan"),)), "key 'n_r' has the wrong type"),
        (dict(rho_grid=None, rho=0.5, n_grid=("abc",)), "key 'n_r' has the wrong type"),
        (dict(rho_grid=None, rho=0.5, n_grid=(50.7,)), "key 'n_r' has the wrong type"),
        (dict(rho_grid=None, rho=0.5, n_grid=(50.0,)), "key 'n_r' has the wrong type"),
        (dict(rho_grid=None, rho=0.5, n_grid=(20, True)), "key 'n_r' has the wrong type"),
        (dict(rho_grid=0.5), "exactly one non-empty swept grid"),
        (dict(rho_grid=np.array(0.5)), "exactly one non-empty swept grid"),
        (dict(algorithms=None), "algorithms must name one or more methods"),
        (dict(algorithms=[["bisc"]]), "algorithms must name one or more methods"),
        (dict(rho_grid=(10 ** 5000,)), "sweep point 0: Exceeds the limit"),
    ], ids=["nan-n", "string-n", "fractional-n", "integral-float-n", "bool-n",
            "scalar-grid", "zero-d-array-grid", "no-algorithms", "unhashable-algorithm",
            "integer-past-the-digit-limit"])
    def test_bad_python_value_is_a_validation_error(self, overrides, message):
        with pytest.raises(ValidationError, match=message):
            tiny_config(**overrides)


# values of every type a Python caller might put in a sweep's grid, replicate
# count or algorithm list, beside valid ones so that some sweeps build; n
# stays small so that a point that builds is cheap
_VALUES = st.one_of(
    st.integers(-3, 80), st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
    st.text(max_size=3), st.none(), st.integers(-3, 80).map(np.int64),
    st.floats(-2.0, 2.0).map(np.float64),
    st.lists(st.integers(-3, 80), max_size=2).map(np.array),
)
_GOOD_VALUES = st.one_of(st.integers(3, 80), st.integers(3, 80).map(np.int64),
                         st.floats(0.1, 2.0))


def _mostly(good, bad):  # three draws in four from ``good``
    return st.integers(0, 3).flatmap(lambda i: bad if i == 3 else good)


_GRIDS = _mostly(
    st.lists(_GOOD_VALUES, min_size=1, max_size=3).flatmap(
        lambda values: st.sampled_from([values, tuple(values), np.array(values)])),
    st.one_of(_VALUES, st.lists(_VALUES, max_size=3), st.lists(_VALUES, max_size=3).map(tuple)),
)
_ALGORITHMS = _mostly(
    st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=2, unique=True).flatmap(
        lambda names: st.sampled_from([names, tuple(names), np.array(names)])),
    st.one_of(_VALUES, st.lists(st.one_of(st.sampled_from(ALGORITHMS), _VALUES), max_size=3)),
)


@settings(max_examples=200, deadline=2000, derandomize=True)
@given(swept=st.sampled_from(["rho_grid", "n_grid", "sigma2_grid"]), grid=_GRIDS,
       other=_mostly(st.none(), _GRIDS), replicates=_mostly(st.integers(1, 3), _VALUES),
       algorithms=_ALGORITHMS)
def test_a_python_sweep_builds_or_raises_a_bidfm_error(swept, grid, other, replicates,
                                                        algorithms):
    fields = ["rho_grid", "n_grid", "sigma2_grid"]
    fields.remove(swept)
    try:
        config = SimulationConfig(
            model="bidfm", kind="normal", mixing=P2, n_r=30, n_c=45, rho=0.5, sigma2=1.0,
            replicates=replicates, algorithms=algorithms, **{swept: grid, fields[0]: other})
    except BidfmError:
        return
    assert len(config._points) == len(config.swept[1]) >= 1


class TestGridReadOnce:
    """A build reads the swept grid once and stores the tuple it read."""

    def test_generator_grid(self):
        config = SimulationConfig(model="bidfm", kind="bernoulli", mixing=P1, rho=0.5,
                                  n_grid=(n for n in (30, 40)), replicates=1)
        assert config.swept == ("n", (30, 40))
        assert config.n_grid == (30, 40)
        again = SimulationConfig(model="bidfm", kind="bernoulli", mixing=P1, rho=0.5,
                                 n_grid=(30, 40), replicates=1)
        assert run_simulation(config).to_csv() == run_simulation(again).to_csv()

    def test_generator_algorithms(self):
        config = tiny_config(algorithms=(name for name in ("bisc", "nbisc")))
        assert config.algorithms == ("bisc", "nbisc")
        assert run_simulation(config).to_csv() == run_simulation(tiny_config()).to_csv()

    @pytest.mark.parametrize("field, grid", [
        ("rho_grid", np.array([0.5, 0.9])), ("n_grid", np.array([30, 40])),
        ("sigma2_grid", [0.5, 1.5]),
    ])
    def test_grid_field_holds_the_tuple_read(self, field, grid):
        law = dict(kind="normal", mixing=P2, sigma2=None if field == "sigma2_grid" else 1.0)
        fixed = {"rho_grid": dict(n_r=30, n_c=45), "n_grid": dict(rho=0.5),
                 "sigma2_grid": dict(n_r=30, n_c=45, rho=0.5)}[field]
        config = tiny_config(**{"rho_grid": None, **law, **fixed, field: grid})
        assert getattr(config, field) == tuple(grid)
        assert type(getattr(config, field)) is tuple
        assert config.swept[1] is getattr(config, field)
        assert [point[0] for point in config._points] == list(grid)
        listed = tiny_config(**{"rho_grid": None, **law, **fixed, field: list(grid)})
        assert run_simulation(config).to_csv() == run_simulation(listed).to_csv()


class TestOneBuild:
    """A sweep's points are read once, when it is built, and its run reads none."""

    def test_simulate_with_flags_reads_each_point_once(self, tmp_path, monkeypatch):
        calls, read = [], fileio.params_from_config
        monkeypatch.setattr(fileio, "params_from_config",
                            lambda data: calls.append(data) or read(data))
        assert main(["simulate", "--preset", "sim1a", "--replicates", "1", "--algorithms",
                     "bisc", "--seed", "3", "--output", str(tmp_path / "report.csv")]) == 0
        assert len(calls) == len(preset("sim1a").rho_grid) == 10

    def test_run_reads_no_point(self, monkeypatch):
        config = tiny_config(replicates=1)

        def never(data):
            raise AssertionError("a point was read again")

        monkeypatch.setattr(fileio, "params_from_config", never)
        monkeypatch.setattr(fileio, "distribution_from_config", never)
        assert len(run_simulation(config).points) == 4

    def test_flag_replaces_a_config_key_before_the_check(self, tmp_path):
        path, out = tmp_path / "sim.json", tmp_path / "report.csv"
        path.write_text(json.dumps({
            "model": "bidfm", "kind": "bernoulli", "mixing": "P1", "n_r": 30, "n_c": 45,
            "rho_grid": [0.5], "replicates": 0, "algorithms": ["bisc"]}))
        assert main(["simulate", "--config", str(path), "--replicates", "2",
                     "--output", str(out)]) == 0
        assert [line.split(",")[-2] for line in out.read_text().splitlines()[2:]] == ["2"]


class TestRunSimulation:
    def test_deterministic_reports(self):
        a = run_simulation(tiny_config())
        b = run_simulation(tiny_config())
        assert a.to_csv() == b.to_csv()

    def test_failures_recorded_not_fatal(self):
        config = tiny_config(
            k_r=1, k_c=1, mixing=np.array([[1.0]]),
            algorithms=("bisc", "dscore"), rho_grid=(0.5,),
        )
        report = run_simulation(config)
        by_alg = {p.algorithm: p for p in report.points}
        assert by_alg["dscore"].failed == 3
        assert by_alg["dscore"].replicates == 0
        assert math.isnan(by_alg["dscore"].mean_error)
        assert by_alg["bisc"].failed == 0
        assert by_alg["bisc"].mean_error == 0.0  # single block is trivial

    def test_failure_reasons_name_the_exception(self):
        config = tiny_config(
            k_r=1, k_c=1, mixing=np.array([[1.0]]),
            algorithms=("bisc", "dscore", "rdscore"), rho_grid=(0.5,),
        )
        by_alg = {p.algorithm: p for p in run_simulation(config).points}
        assert by_alg["dscore"].failure_reasons == {"UnsupportedError": 3}
        assert by_alg["rdscore"].failure_reasons == {"UnsupportedError": 3}
        assert by_alg["bisc"].failure_reasons == {}

    def test_failed_embedding_fails_every_method_sharing_it(self, monkeypatch):
        calls = []

        def failing_svd(m, k):
            calls.append(k)
            raise ConvergenceError("SVD failed: stub")

        monkeypatch.setattr("bidfm.detect.truncated_svd", failing_svd)
        config = tiny_config(algorithms=("bisc", "nbisc", "disim", "dscore", "rdscore"))
        report = run_simulation(config)
        # 2 swept values x 3 replicates x 2 operators
        assert len(calls) == 12
        for p in report.points:
            assert (p.failed, p.replicates) == (3, 0)
            assert p.failure_reasons == {"ConvergenceError": 3}

    def test_replicate_seeds_recorded(self):
        report = run_simulation(tiny_config(replicates=4))
        assert report.points[0].seeds == (11, 12, 13, 14)

    def test_laplacian_methods_get_shifted_negatives(self):
        from bidfm.detect import disim

        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 30))
        result = disim(a, 2, 3, seed=0)
        assert result.diagnostics["shift"] > 0
        assert len(result.row_labels) == 20

    def test_csv_layout(self):
        text = run_simulation(tiny_config()).to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1].split(",")[0] == "algorithm"
        # 2 sweep values x 2 algorithms
        assert len(lines) == 2 + 4


class TestPointConfig:
    """Each sweep point's model config, given to ``bidfm generate``, rebuilds
    the point's parameters and every replicate the sweep sampled from it."""

    @pytest.mark.parametrize("name, overrides", [
        ("sim2c", dict(n_r=20, n_c=30, sigma2_grid=(0.4, 1.2))),
        ("sim1b", dict(n_r=30, n_c=45, rho_grid=(0.4, 0.6))),
    ])
    def test_generate_rebuilds_each_replicate(self, tmp_path, monkeypatch, capsys,
                                              name, overrides):
        config = preset(name, replicates=2, algorithms=("bisc",), base_seed=3, **overrides)
        drawn, sampled = [], []  # each point's parameters and replicates, as swept

        def draw(params):
            drawn.append(params)
            return expected_adjacency(params)

        def sample(*args):
            sampled.append(sample_adjacency(*args))
            return sampled[-1]

        monkeypatch.setattr(experiments, "expected_adjacency", draw)
        monkeypatch.setattr(experiments, "sample_adjacency", sample)
        run_simulation(config)
        for index, (_, point, _, _) in enumerate(config._points):
            params, point_seed = drawn[index], 3 + 100003 * (index + 1)
            assert point["membership_seed"] == point_seed
            assert params.row_membership == sample_memberships(point["n_r"], 2, point_seed)
            assert params.col_membership == sample_memberships(point["n_c"], 3, point_seed + 1)
            path = tmp_path / "point.json"
            path.write_text(json.dumps(point))
            for rep in range(config.replicates):
                prefix = str(tmp_path / f"point{index}_rep{rep}")
                assert main(["generate", "--config", str(path), "--seed", str(3 + rep),
                             "--output", prefix]) == 0
                assert np.array_equal(read_matrix(f"{prefix}_omega.txt"),
                                      expected_adjacency(params))
                assert np.array_equal(read_labels(f"{prefix}_row_labels.txt")[1],
                                      params.row_membership.labels)
                assert np.array_equal(read_labels(f"{prefix}_col_labels.txt")[1],
                                      params.col_membership.labels)
                assert np.array_equal(read_matrix(f"{prefix}_adjacency.txt"),
                                      sampled[index * config.replicates + rep])

    def test_numpy_scalars_become_plain_numbers(self):
        config = tiny_config(kind="normal", mixing=P2, k_r=np.int64(2), n_r=np.int64(30),
                             n_c=np.int64(45), sigma2=np.float64(1.0), base_seed=np.int64(11),
                             rho_grid=(np.float64(0.5),))
        _, point, _, _ = config._points[0]
        values = [v for k, v in point.items() if k not in ("model", "mixing", "distribution")]
        assert [type(v) for v in values] == [int, int, int, int, float, int]
        assert type(point["distribution"]["sigma2"]) is float
        assert params_from_config(point).shape == (30, 45)


class TestEstimateK:
    def test_exact_rank_two(self):
        params = BiDFMParams(
            sample_memberships(20, 2, 0), sample_memberships(30, 3, 1), P1, 0.5
        )
        estimate = estimate_k_eigengap(expected_adjacency(params), m=5)
        assert estimate.k_suggestion == 2
        assert len(estimate.singular_values) == 5
        assert estimate.singular_values[2] < 1e-9

    def test_noisy_rank_two_majority(self):
        params = BiDFMParams(
            sample_memberships(60, 2, 2), sample_memberships(90, 2, 3),
            np.array([[1.0, 0.2], [0.3, 0.8]]), 0.5,
        )
        omega = expected_adjacency(params)
        spec = DistributionSpec("normal", sigma2=0.01)
        agreements = sum(
            estimate_k_eigengap(sample_adjacency(omega, spec, seed), m=6).k_suggestion == 2
            for seed in range(20)
        )
        assert agreements >= 18

    def test_m_eight_profile(self):
        rng = np.random.default_rng(4)
        estimate = estimate_k_eigengap(rng.uniform(size=(40, 50)), m=8)
        assert len(estimate.singular_values) == 8
        sv = np.array(estimate.singular_values)
        assert np.all(np.diff(sv) <= 1e-12)

    def test_m_one(self):
        estimate = estimate_k_eigengap(np.diag([3.0, 2.0, 1.0]), m=1)
        assert estimate.k_suggestion == 1
        assert estimate.singular_values == pytest.approx((3.0,))

    def test_m_out_of_range(self):
        with pytest.raises(DimensionError):
            estimate_k_eigengap(np.eye(4), m=5)

    def test_sparse_input(self):
        rng = np.random.default_rng(6)
        a = rng.poisson(0.01 * (1.0 + 9.0 * np.kron(np.eye(3), np.ones((100, 150))))).astype(float)
        dense = estimate_k_eigengap(a, m=6)
        sparse = estimate_k_eigengap(scipy.sparse.csr_array(a), m=6)
        assert sparse.k_suggestion == dense.k_suggestion == 3
        assert sparse.singular_values == pytest.approx(dense.singular_values, rel=1e-12)


class TestDegreeProfiles:
    def test_sparse_input(self):
        a = np.array([[1.0, -2.0, 0.0], [0.0, 0.0, 0.0], [3.0, 0.0, -0.5]])
        for dense, sparse in zip(degree_profiles(a), degree_profiles(scipy.sparse.csr_array(a))):
            assert np.array_equal(dense, sparse)

    def test_all_ones(self):
        d_r, d_c = degree_profiles(np.ones((2, 3)))
        assert np.array_equal(d_r, [3.0, 3.0])
        assert np.array_equal(d_c, [2.0, 2.0, 2.0])

    def test_absolute_values(self):
        d_r, _ = degree_profiles(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.array_equal(d_r, [2.0, 2.0])

    def test_against_loop(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 7))
        d_r, d_c = degree_profiles(a)
        for i in range(6):
            assert d_r[i] == pytest.approx(sum(abs(a[i, j]) for j in range(7)))
        for j in range(7):
            assert d_c[j] == pytest.approx(sum(abs(a[i, j]) for i in range(6)))


class TestFilterZeroDegree:
    def toy(self):
        # node 2 (1-based) has zero out-degree; node 3 zero in-degree
        return np.array(
            [
                [1.0, 2.0, 0.0],
                [0.0, 0.0, 0.0],
                [3.0, 0.0, 0.0],
            ]
        )

    def test_hand_checked_sets(self):
        result = filter_zero_degree(self.toy(), "both-or")
        assert result.removed.rows == (2,)
        assert result.removed.cols == (3,)
        assert result.removed.both == ()
        assert result.removed.either == (2, 3)
        assert result.matrix.shape == (1, 1)
        assert result.kept_rows == (1,)

    def test_both_and_keeps_half_dead_nodes(self):
        m = self.toy()
        m[1, 0] = 5.0  # node 2 now has out-degree; node 3 still dead on input side only
        result = filter_zero_degree(m, "both-and")
        assert result.removed.both == ()
        assert result.matrix.shape == (3, 3)

    def test_rows_mode(self):
        result = filter_zero_degree(self.toy(), "rows")
        assert result.matrix.shape == (2, 3)
        assert result.kept_rows == (1, 3)
        assert result.kept_cols == (1, 2, 3)

    def test_cols_mode_rectangular(self):
        a = np.array([[1.0, 0.0, 2.0]])
        result = filter_zero_degree(a, "cols")
        assert result.matrix.shape == (1, 2)
        assert result.kept_cols == (1, 3)

    def test_noop_when_no_zero_degrees(self):
        a = np.ones((4, 4))
        result = filter_zero_degree(a, "both-or")
        assert np.array_equal(result.matrix, a)

    def test_entries_preserved_exactly(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((12, 12))
        a[3, :] = 0.0
        a[:, 7] = 0.0
        result = filter_zero_degree(a, "both-or")
        for _ in range(20):
            i = rng.integers(len(result.kept_rows))
            j = rng.integers(len(result.kept_cols))
            assert result.matrix[i, j] == a[result.kept_rows[i] - 1, result.kept_cols[j] - 1]

    def test_square_required_for_both_modes(self):
        with pytest.raises(DimensionError):
            filter_zero_degree(np.ones((2, 3)), "both-and")

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            filter_zero_degree(np.ones((2, 2)), "sideways")

    @pytest.mark.parametrize("mode", ["rows", "cols", "both-and", "both-or"])
    def test_sparse_input_gives_the_dense_sets_and_stays_sparse(self, mode):
        rng = np.random.default_rng(2)
        a = rng.poisson(0.05, (40, 40)).astype(float)
        a[[3, 8], :] = 0.0
        a[:, [8, 20]] = 0.0
        dense = filter_zero_degree(a, mode)
        sparse = filter_zero_degree(scipy.sparse.csr_matrix(a), mode)
        assert isinstance(dense.matrix, np.ndarray)
        assert isinstance(sparse.matrix, scipy.sparse.csr_array)
        assert np.array_equal(sparse.matrix.toarray(), dense.matrix)
        assert (sparse.kept_rows, sparse.kept_cols, sparse.removed) == (
            dense.kept_rows, dense.kept_cols, dense.removed)

    # a node is zero-degree when no entry of its row (or column) is nonzero:
    # entries that cancel, a -0.0, a subnormal and degrees beyond the float
    # range decide as they do in the CSR input's absolute degrees
    AWKWARD = {
        "cancelling": ([[1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, -2.0]], (2,), ()),
        "negative-zero": ([[1.0, -0.0, 0.0], [-0.0, -0.0, 0.0], [2.0, -0.0, 0.0]], (2,), (2, 3)),
        "subnormal": ([[5e-324, 0.0, 0.0], [0.0, 0.0, -4e-320], [0.0, 0.0, 0.0]], (3,), (2,)),
        "overflowing": ([[1e308, 1e308, 0.0], [0.0, -1e308, 0.0], [0.0, -1e308, 0.0]],
                        (), (3,)),
    }

    @pytest.mark.parametrize("stored", ["scipy", "every-entry"])
    @pytest.mark.parametrize("case", AWKWARD)
    def test_awkward_entries_give_the_csr_sets(self, case, stored):
        a, zero_rows, zero_cols = self.AWKWARD[case]
        a = np.array(a)
        # scipy's CSR drops every zero; a CSR of every entry stores -0.0 too
        csr = (scipy.sparse.csr_array(a) if stored == "scipy" else scipy.sparse.csr_array(
            (a.ravel(), np.tile(np.arange(3), 3), np.arange(0, 10, 3)), shape=(3, 3)))
        for mode in ("rows", "cols", "both-and", "both-or"):
            dense, sparse = filter_zero_degree(a, mode), filter_zero_degree(csr, mode)
            assert (dense.kept_rows, dense.kept_cols, dense.removed) == (
                sparse.kept_rows, sparse.kept_cols, sparse.removed)
            assert (dense.removed.rows, dense.removed.cols) == (zero_rows, zero_cols)


class TestSparseNetwork:
    def test_twenty_thousand_nodes_without_densifying(self):
        """20k nodes and 200k edges: the dense array alone would take
        3.2 GB; the filter, the eigengap estimate and nbisc stay sparse."""
        n, m = 20000, 200000
        rng = np.random.default_rng(0)
        clusters = np.arange(n) % 3
        src = rng.integers(0, n, m)
        same = 3 * rng.integers(0, n // 3, m) + clusters[src]  # a node in src's cluster
        dst = np.where(rng.random(m) < 0.7, same, rng.integers(0, n, m))
        a = scipy.sparse.coo_array((np.ones(m), (src, dst)), shape=(n, n)).tocsr()
        tracemalloc.start()
        try:
            filtered = filter_zero_degree(a, "both-or")
            estimate = estimate_k_eigengap(filtered.matrix, m=8)
            result = nbisc(filtered.matrix, 3, 3, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        assert len(estimate.singular_values) == 8
        assert result.diagnostics["svd_path"] == "sparse"
        truth = clusters[np.array(filtered.kept_rows) - 1] + 1
        assert nmi(result.row_labels, truth) > 0.8 and nmi(result.col_labels, truth) > 0.8


class TestRowColumnSimilarity:
    def test_identical_partitions(self):
        assert row_column_similarity([1, 2, 1, 2], [1, 2, 1, 2]) == (0.0, 1.0, 1.0)

    def test_crossed_partitions_independent(self):
        h, n, a = row_column_similarity(
            [1, 1, 1, 1, 2, 2, 2, 2], [1, 1, 2, 2, 1, 1, 2, 2]
        )
        assert n == pytest.approx(0.0, abs=1e-15)
        assert h == pytest.approx(0.5)

    def test_delegates_to_metric_functions(self):
        rng = np.random.default_rng(13)
        rows = np.concatenate([[1, 2, 3], rng.integers(1, 4, 17)])
        cols = np.concatenate([[1, 2, 3], rng.integers(1, 4, 17)])
        assert row_column_similarity(rows, cols) == (
            hamming_error(cols, rows), nmi(cols, rows), ari(cols, rows))

    def test_mismatched_inputs(self):
        with pytest.raises(DimensionError):
            row_column_similarity([1, 2], [1, 2, 1])
        with pytest.raises(DimensionError):
            row_column_similarity([1, 2, 1], [1, 2, 3])
