import dataclasses
import math

import numpy as np
import pytest

from bidfm.errors import DimensionError, ValidationError
from bidfm.linalg import truncated_svd
from bidfm.model import (
    P1,
    P2,
    BiDCDFMParams,
    BiDFMParams,
    Membership,
    expected_adjacency,
    sample_memberships,
    sample_theta,
)
from bidfm.sampling import DistributionSpec
from bidfm.theory import (
    TheoryInputs,
    check_assumption,
    deviation_bound,
    empirical_tau,
    error_envelope,
    gamma_tau,
    population_geometry_check,
    population_svd_oracle,
    theory_inputs,
)

# an integer no float holds, with a readable test id
HUGE = pytest.param(10**400, id="10**400")


def plain_instance(seed=0, n_r=40, n_c=60, p=P1, rho=0.5, k_r=2, k_c=3):
    rows = sample_memberships(n_r, k_r, seed)
    cols = sample_memberships(n_c, k_c, seed + 1000)
    return BiDFMParams(rows, cols, p, rho)


def corrected_instance(seed=0, n_r=40, n_c=60, p=P1, rho=0.5, k_r=2, k_c=3):
    plain = plain_instance(seed, n_r, n_c, p, rho, k_r, k_c)
    return BiDCDFMParams(
        plain.row_membership,
        plain.col_membership,
        p,
        sample_theta(n_r, rho, seed + 2000),
        sample_theta(n_c, rho, seed + 3000),
    )


def basic_inputs(**overrides):
    fields = dict(
        n_r=200, n_c=300, k_r=2, k_c=3, sigma_min_mixing=0.5,
        gamma=1.0, tau=1.0, n_r_min=90, n_r_max=110, n_c_min=95,
        n_c_max=105, rho=0.5,
    )
    fields.update(overrides)
    return TheoryInputs(**fields)


class TestGammaTau:
    def test_bernoulli_exact_and_bound(self):
        params = plain_instance()
        gt = gamma_tau(DistributionSpec("bernoulli"), params)
        # largest mean is 0.5, so the exact constant is 0.25 / 0.5
        assert gt.gamma == pytest.approx(0.5)
        assert gt.gamma <= gt.gamma_bound == 1.0
        assert gt.tau == 1.0

    def test_normal(self):
        params = plain_instance(p=P2)
        gt = gamma_tau(DistributionSpec("normal", sigma2=1.0), params)
        assert gt.gamma == pytest.approx(2.0)
        assert gt.gamma_bound == pytest.approx(2.0)
        assert gt.tau_unbounded

    def test_signed(self):
        params = plain_instance(p=P2)
        gt = gamma_tau(DistributionSpec("signed"), params)
        # smallest |mean| is 0.5 * 0.2 = 0.1, largest 0.5
        assert gt.gamma == pytest.approx((1 - 0.1**2) / 0.5)
        assert gt.gamma_bound == pytest.approx(2.0)
        assert gt.gamma <= gt.gamma_bound
        assert gt.tau == pytest.approx(1.5)
        assert gt.tau <= 2.0

    def test_poisson(self):
        params = plain_instance()
        gt = gamma_tau(DistributionSpec("poisson"), params)
        assert gt.gamma == pytest.approx(1.0)  # max mean / rho = max P
        assert gt.gamma_bound == gt.gamma
        assert gt.tau_unbounded

    def test_constant_theta_matches_plain(self):
        params = plain_instance()
        lifted = BiDCDFMParams.from_bidfm(params)
        for spec in (DistributionSpec("bernoulli"), DistributionSpec("signed")):
            a = gamma_tau(spec, params)
            b = gamma_tau(spec, lifted)
            assert a.gamma == pytest.approx(b.gamma, rel=1e-12)
            assert a.tau == pytest.approx(b.tau, rel=1e-12)


class TestAssumptionChecks:
    def test_comfortably_holds(self):
        check = check_assumption("bidfm", basic_inputs())
        rhs = math.log(500) / 300
        assert check.holds is True
        assert check.ratio == pytest.approx(0.5 / rhs)

    def test_boundary(self):
        rho = math.log(500) / 300
        check = check_assumption("bidfm", basic_inputs(rho=rho))
        assert check.holds is True
        assert check.ratio == pytest.approx(1.0)

    def test_fails_below_boundary(self):
        rho = 0.5 * math.log(500) / 300
        check = check_assumption("bidfm", basic_inputs(rho=rho))
        assert check.holds is False
        assert check.ratio == pytest.approx(0.5)

    def test_unbounded_tau_indeterminate(self):
        check = check_assumption("bidfm", basic_inputs(tau=math.inf))
        assert check.holds is None
        assert "empirical" in check.note

    def test_constant_theta_reduction_matches(self):
        rho = 0.5
        root = math.sqrt(rho)
        inputs = basic_inputs(
            theta_r_min=root, theta_r_max=root, theta_c_min=root,
            theta_c_max=root, theta_r_l1=200 * root, theta_c_l1=300 * root,
        )
        one = check_assumption("bidfm", inputs)
        two = check_assumption("bidcdfm", inputs)
        assert one.holds == two.holds
        assert one.ratio == pytest.approx(two.ratio, rel=1e-12)

    def test_degree_corrected_direct_case(self):
        inputs = basic_inputs(
            gamma=1.0, tau=1.0, theta_r_min=0.1, theta_r_max=0.9,
            theta_c_min=0.1, theta_c_max=0.8, theta_r_l1=100.0, theta_c_l1=120.0,
        )
        check = check_assumption("bidcdfm", inputs)
        lhs = max(0.9 * 120.0, 0.8 * 100.0)
        assert check.holds is True
        assert check.ratio == pytest.approx(lhs / math.log(500))


class TestDeviationBounds:
    def test_arithmetic_identity(self):
        # choose rho so the product under the square root is exactly 100
        rho = 100.0 / (300 * math.log(500))
        inputs = basic_inputs(gamma=1.0, rho=rho)
        assert deviation_bound("bidfm", inputs, 1.0) == pytest.approx(10.0)

    def test_simulation_shape_value(self):
        inputs = basic_inputs()
        expected = math.sqrt(1.0 * 0.5 * 300 * math.log(500))
        assert deviation_bound("bidfm", inputs, 1.0) == pytest.approx(expected)
        assert deviation_bound("bidfm", inputs, 2.5) == pytest.approx(2.5 * expected)

    def test_monotone_in_size(self):
        small = basic_inputs()
        large = basic_inputs(n_c=600)
        ratio = deviation_bound("bidfm", large) / deviation_bound("bidfm", small)
        assert ratio == pytest.approx(
            math.sqrt(2.0 * math.log(800) / math.log(500))
        )

    def test_constant_theta_reduction(self):
        rho = 0.5
        root = math.sqrt(rho)
        inputs = basic_inputs(
            theta_r_min=root, theta_r_max=root, theta_c_min=root,
            theta_c_max=root, theta_r_l1=200 * root, theta_c_l1=300 * root,
        )
        assert deviation_bound("bidcdfm", inputs) == pytest.approx(
            deviation_bound("bidfm", inputs), rel=1e-12
        )

    def test_degree_corrected_direct_case(self):
        inputs = basic_inputs(
            gamma=2.0, theta_r_max=0.9, theta_c_max=0.8,
            theta_r_min=0.1, theta_c_min=0.1,
            theta_r_l1=100.0, theta_c_l1=120.0,
        )
        expected = math.sqrt(2.0 * max(0.9 * 120, 0.8 * 100) * math.log(500))
        assert deviation_bound("bidcdfm", inputs) == pytest.approx(expected)


class TestErrorEnvelopes:
    def test_plain_direct_evaluation(self):
        inputs = basic_inputs(delta_c=0.2)
        tail = 300 * math.log(500) / (0.25 * 0.5 * 90 * 95)
        assert error_envelope("bidfm", inputs).f_r == pytest.approx(
            1.0 * 4 * 110 / 90 * tail
        )
        assert error_envelope("bidfm", inputs).f_c == pytest.approx(
            1.0 * 6 / (0.04 * 95) * tail
        )

    def test_plain_equal_cluster_count_default_gap(self):
        inputs = basic_inputs(k_c=2)
        expected_gap2 = 2.0 / 105
        tail = 300 * math.log(500) / (0.25 * 0.5 * 90 * 95)
        assert error_envelope("bidfm", inputs).f_c == pytest.approx(
            4 / (expected_gap2 * 95) * tail
        )

    def test_plain_needs_gap_when_counts_differ(self):
        with pytest.raises(ValidationError):
            error_envelope("bidfm", basic_inputs(delta_c=None))

    def test_degree_corrected_direct_evaluation(self):
        inputs = basic_inputs(
            k_c=2, gamma=1.5, theta_r_min=0.2, theta_r_max=0.9,
            theta_c_min=0.3, theta_c_max=0.8, theta_r_l1=100.0,
            theta_c_l1=120.0,
        )
        balance = max(0.9 * 120, 0.8 * 100)
        log_n = math.log(500)
        f_r = 1.5 * 0.81 * 4 * 110 * balance * log_n / (
            0.2**4 * 0.3**2 * 0.25 * 90**2 * 95
        )
        f_c = 1.5 * 0.64 * 4 * 105 * balance * log_n / (
            0.2**2 * 0.3**4 * 0.25 * 2.0 * 1.0 * 90 * 95**2
        )
        envelope = error_envelope("bidcdfm", inputs)
        assert envelope.f_r == pytest.approx(f_r)
        assert envelope.f_c == pytest.approx(f_c)

    def test_constant_theta_consistency_with_plain(self):
        # equal cluster counts, theta == sqrt(rho), and the guaranteed gap
        # substitutions make the two envelopes coincide exactly
        rho = 0.5
        root = math.sqrt(rho)
        inputs = basic_inputs(
            k_c=2, rho=rho, theta_r_min=root, theta_r_max=root,
            theta_c_min=root, theta_c_max=root, theta_r_l1=200 * root,
            theta_c_l1=300 * root,
        )
        plain = error_envelope("bidfm", inputs)
        corrected = error_envelope("bidcdfm", inputs)
        assert corrected.f_r == pytest.approx(plain.f_r, rel=1e-12)
        assert corrected.f_c == pytest.approx(plain.f_c, rel=1e-12)

    def test_monotonicity_grid(self):
        base = basic_inputs(delta_c=0.2)
        for field, direction in (
            ("rho", -1), ("n_r_min", -1), ("n_c_min", -1),
            ("sigma_min_mixing", -1), ("gamma", +1),
        ):
            bumped = dataclasses.replace(base, **{field: getattr(base, field) * 1.25})
            before = error_envelope("bidfm", base)
            after = error_envelope("bidfm", bumped)
            for attr in ("f_r", "f_c"):
                delta = getattr(after, attr) - getattr(before, attr)
                assert direction * delta > 0, (field, attr)


# every optional field the degree-corrected envelope reads
THETAS = dict(theta_r_min=0.2, theta_r_max=0.9, theta_c_min=0.3, theta_c_max=0.8,
              theta_r_l1=100.0, theta_c_l1=150.0)

PLAIN_GAP = "column envelope needs delta_c when cluster counts differ"
CORRECTED_GAP = "column envelope needs delta_c_star and m_v_c when cluster counts differ"


class TestGapRule:
    # each column gap absent, given or zero, with equal (k_c = 2) and unequal
    # (k_c = 3) cluster counts: the literal (f_r, f_c), or the exact message
    @pytest.mark.parametrize("model, k_c, gaps, expected", [
        ("bidfm", 2, {}, (8.528429047347414, 3.8561557175805286)),
        ("bidfm", 2, {"delta_c": 0.2}, (8.528429047347414, 1.836264627419299)),
        ("bidfm", 2, {"delta_c": 0.0}, (8.528429047347414, math.inf)),
        ("bidfm", 3, {}, PLAIN_GAP),
        ("bidfm", 3, {"delta_c": 0.2}, (8.528429047347414, 2.754396941128949)),
        ("bidfm", 3, {"delta_c": 0.0}, (8.528429047347414, math.inf)),
        ("bidcdfm", 2, {}, (10793.793013049068, 1713.8469855913459)),
        ("bidcdfm", 2, {"delta_c_star": 1.2}, (10793.793013049068, 2380.343035543536)),
        ("bidcdfm", 2, {"m_v_c": 0.8}, (10793.793013049068, 2677.885914986477)),
        ("bidcdfm", 2, {"delta_c_star": 1.2, "m_v_c": 0.8},
         (10793.793013049068, 3719.285993036775)),
        ("bidcdfm", 2, {"delta_c_star": 0.0}, (10793.793013049068, math.inf)),
        ("bidcdfm", 2, {"delta_c_star": 0.0, "m_v_c": 0.8}, (10793.793013049068, math.inf)),
        ("bidcdfm", 3, {}, CORRECTED_GAP),
        ("bidcdfm", 3, {"delta_c_star": 1.2}, CORRECTED_GAP),
        ("bidcdfm", 3, {"m_v_c": 0.8}, CORRECTED_GAP),
        ("bidcdfm", 3, {"delta_c_star": 0.0}, CORRECTED_GAP),
        ("bidcdfm", 3, {"delta_c_star": 1.2, "m_v_c": 0.8},
         (10793.793013049068, 5578.928989555163)),
        ("bidcdfm", 3, {"delta_c_star": 0.0, "m_v_c": 0.8}, (10793.793013049068, math.inf)),
    ])
    def test_gap_rule(self, model, k_c, gaps, expected):
        inputs = basic_inputs(k_c=k_c, **(THETAS if model == "bidcdfm" else {}), **gaps)
        if isinstance(expected, str):
            with pytest.raises(ValidationError) as info:
                error_envelope(model, inputs)
            assert str(info.value) == expected
        else:
            envelope = error_envelope(model, inputs)
            assert (envelope.f_r, envelope.f_c) == expected


class TestMissingInputs:
    # each check, bound and envelope names every optional field it needs
    # that the inputs leave out, in one error
    @pytest.mark.parametrize("function, model, given, message", [
        (check_assumption, "bidfm", {}, "plain-model assumption check needs rho"),
        (deviation_bound, "bidfm", {}, "plain-model deviation bound needs rho"),
        (error_envelope, "bidfm", {}, "plain-model envelope needs rho"),
        (check_assumption, "bidcdfm", {}, "degree-corrected assumption check needs "
         "theta_r_max, theta_c_max, theta_r_l1, theta_c_l1"),
        (deviation_bound, "bidcdfm", {"theta_r_max": 0.9},
         "degree-corrected deviation bound needs theta_c_max, theta_r_l1, theta_c_l1"),
        (error_envelope, "bidcdfm", {}, "degree-corrected envelope needs theta_r_min, "
         "theta_c_min, theta_r_max, theta_c_max, theta_r_l1, theta_c_l1"),
        (error_envelope, "bidcdfm", {k: v for k, v in THETAS.items() if k != "theta_c_min"},
         "degree-corrected envelope needs theta_c_min$"),
    ], ids=["assumption1", "bound-bidfm", "envelope-bidfm", "assumption2", "bound-bidcdfm",
            "envelope-bidcdfm", "envelope-bidcdfm-one-missing"])
    def test_every_missing_field_named(self, function, model, given, message):
        with pytest.raises(ValidationError, match=message):
            function(model, basic_inputs(k_c=2, rho=None, **given))

    @pytest.mark.parametrize("function", [check_assumption, deviation_bound, error_envelope])
    def test_unknown_model(self, function):
        with pytest.raises(ValidationError, match="unknown model 'sbm'"):
            function("sbm", basic_inputs())


class TestConstants:
    # the library checks C_alpha and c: a positive real within the float range
    @pytest.mark.parametrize("value", [-1.0, 0.0, 0, math.nan, math.inf, -math.inf, HUGE,
                                       "1", None, True, np.float64(-2.0)])
    @pytest.mark.parametrize("function, name", [(deviation_bound, "c_alpha"),
                                                (error_envelope, "c")])
    def test_bad_constant_rejected(self, function, name, value):
        with pytest.raises(ValidationError,
                           match=f"'{name}' must be a positive real within the float range"):
            function("bidfm", basic_inputs(delta_c=0.2), value)

    @pytest.mark.parametrize("value", [1, 2.5, np.float64(0.5), np.int64(3), 1e-300])
    def test_good_constant_accepted(self, value):
        inputs = basic_inputs(delta_c=0.2)
        assert deviation_bound("bidfm", inputs, value) == pytest.approx(
            value * deviation_bound("bidfm", inputs))
        assert error_envelope("bidfm", inputs, value).f_r == pytest.approx(
            value * error_envelope("bidfm", inputs).f_r)


class TestEmpiricalTau:
    def test_max_deviation(self):
        omega = np.zeros((2, 2))
        a = np.array([[0.5, -1.25], [0.0, 0.75]])
        assert empirical_tau(a, omega) == 1.25

    def test_mismatched_shapes(self):
        with pytest.raises(DimensionError, match=r"shape mismatch: \(2, 2\) vs \(2, 3\)"):
            empirical_tau(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_feeds_assumption_check(self):
        params = plain_instance(p=P2)
        omega = expected_adjacency(params)
        spec = DistributionSpec("normal", sigma2=0.5)
        from bidfm.sampling import sample_adjacency

        a = sample_adjacency(omega, spec, seed=3)
        inputs = theory_inputs(params, spec, observed=a)
        assert math.isfinite(inputs.tau)
        assert inputs.tau_is_empirical
        check = check_assumption("bidfm", inputs)
        assert check.holds is not None
        assert "heuristic" in check.note


class TestPopulationGeometry:
    def test_plain_equal_sizes_centroid_gap(self):
        rows = Membership([1, 1, 1, 1, 2, 2, 2, 2])
        cols = Membership([1, 1, 1, 2, 2, 2])
        p = np.array([[1.0, 0.3], [0.4, 0.9]])
        params = BiDFMParams(rows, cols, p, rho=0.5)
        report = population_geometry_check(params)
        assert report.max_deviation < 1e-9
        # achieved row gap equals sqrt(1/4 + 1/4)
        factors = truncated_svd(expected_adjacency(params), 2)
        gap = np.linalg.norm(factors.left[0] - factors.left[4])
        assert gap == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_degree_corrected_sqrt2_gaps(self):
        params = corrected_instance(5, k_r=2, k_c=2, p=np.array([[1.0, 0.2], [0.3, 0.8]]))
        report = population_geometry_check(params)
        assert report.max_deviation < 1e-9
        factors = truncated_svd(expected_adjacency(params), 2)
        from bidfm.linalg import row_normalize

        normalized = row_normalize(factors.left).matrix
        i = np.nonzero(params.row_membership.labels == 1)[0][0]
        j = np.nonzero(params.row_membership.labels == 2)[0][0]
        assert np.linalg.norm(normalized[i] - normalized[j]) == pytest.approx(
            math.sqrt(2), abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances_tight(self, seed):
        plain = plain_instance(seed)
        assert population_geometry_check(plain).max_deviation < 1e-9
        corrected = corrected_instance(seed)
        assert population_geometry_check(corrected).max_deviation < 1e-9

    def test_rank_deficient_rejected(self):
        p = np.array([[1.0, 0.0], [0.0, 5e-10]])
        params = BiDFMParams(
            Membership([1, 1, 2, 2]), Membership([1, 2, 1, 2]), p, rho=1.0
        )
        with pytest.raises(ValidationError, match="rank deficient"):
            population_geometry_check(params)


class TestPopulationSvdOracle:
    def test_constant_theta_reduces_to_plain_svd(self):
        params = plain_instance(3)
        analytic = population_svd_oracle(params)
        numeric = truncated_svd(expected_adjacency(params), 2)
        assert np.abs(
            analytic.singular_values - numeric.singular_values
        ).max() < 1e-8
        assert np.abs(analytic.left - numeric.left).max() < 1e-8
        assert np.abs(analytic.right - numeric.right).max() < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_truncated_svd(self, seed):
        params = corrected_instance(seed, p=P2)
        analytic = population_svd_oracle(params)
        numeric = truncated_svd(expected_adjacency(params), 2)
        assert np.abs(
            analytic.singular_values - numeric.singular_values
        ).max() < 1e-8

    def test_rank_one_value(self):
        rows = Membership([1, 1, 1])
        cols = Membership([1, 2, 1, 2])
        p = np.array([[1.0, 0.5]])
        theta_r = np.array([0.3, 0.6, 0.9])
        theta_c = np.array([0.2, 0.4, 0.8, 0.5])
        params = BiDCDFMParams(rows, cols, p, theta_r, theta_c)
        # single triplet: ||theta_r|| * sqrt(sum_l P(1,l)^2 ||theta_c[cluster l]||^2)
        per_cluster = [
            np.linalg.norm(theta_c[cols.labels == 1]),
            np.linalg.norm(theta_c[cols.labels == 2]),
        ]
        expected = np.linalg.norm(theta_r) * math.sqrt(
            (1.0 * per_cluster[0]) ** 2 + (0.5 * per_cluster[1]) ** 2
        )
        factors = population_svd_oracle(params)
        assert factors.singular_values[0] == pytest.approx(expected, abs=1e-12)


class TestTheoryInputs:
    def test_negative_gamma_rejected(self):
        with pytest.raises(ValidationError, match="gamma must be non-negative, got -0.5"):
            basic_inputs(gamma=-0.5)

    def test_from_params_populates_geometry(self):
        params = corrected_instance(2, k_r=2, k_c=2, p=np.array([[1.0, 0.2], [0.3, 0.8]]))
        inputs = theory_inputs(params, DistributionSpec("bernoulli"))
        assert inputs.delta_c_star == pytest.approx(math.sqrt(2), abs=1e-9)
        assert inputs.m_v_c == pytest.approx(1.0, abs=1e-9)
        assert inputs.n_r_min <= inputs.n_r_max
        assert inputs.theta_r_min > 0

    def test_plain_delta_c_matches_closed_form_when_counts_agree(self):
        params = plain_instance(4, k_r=2, k_c=2, p=np.array([[1.0, 0.2], [0.3, 0.8]]))
        inputs = theory_inputs(params, DistributionSpec("bernoulli"))
        sizes = params.col_membership.cluster_sizes()
        assert inputs.delta_c == pytest.approx(
            math.sqrt(1 / sizes[0] + 1 / sizes[1]), abs=1e-9
        )

    def test_negative_gap_rejected(self):
        with pytest.raises(ValidationError, match="delta_c_star must be non-negative, got -0.1"):
            basic_inputs(delta_c_star=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("n_r", "x"), ("n_r", None), ("tau", None), ("gamma", None), ("gamma", True),
        ("rho", "0.5"), ("delta_c", False), ("sigma_min_mixing", [0.5]), ("n_c", math.nan),
    ])
    def test_non_number_rejected(self, field, value):
        kind = "non-negative" if field in ("gamma", "delta_c") else "positive"
        with pytest.raises(ValidationError) as info:
            basic_inputs(**{field: value})
        assert info.value.violations == [f"{field} must be {kind}, got {value!r}"]

    def test_every_bad_field_named_once(self):
        with pytest.raises(ValidationError) as info:
            basic_inputs(n_r=None, tau="x", gamma=-1.0, rho=True, m_v_c=None)
        assert info.value.violations == [
            "n_r must be positive, got None", "gamma must be non-negative, got -1.0",
            "tau must be positive, got 'x'", "rho must be positive, got True"]


# K_r = 1 with two mixing entries of one sign: the two column clusters'
# row-normalized population rows coincide (delta_c_star = 0), and with equal
# entries the raw rows too (delta_c = 0)
COINCIDING = {
    "plain": BiDFMParams(Membership([1, 1, 1, 1]), Membership([1, 2, 1, 2]),
                         [[1.0, 0.5]], 0.5),
    "plain-equal-entries": BiDFMParams(Membership([1, 1, 1, 1]), Membership([1, 2, 1, 2]),
                                       [[1.0, 1.0]], 0.5),
    "degree-corrected": BiDCDFMParams(Membership([1, 1, 1, 1]), Membership([1, 2, 1, 2]),
                                      [[1.0, 0.5]], [0.5] * 4, [0.5] * 4),
}


class TestCoincidingColumnClusters:
    @pytest.mark.parametrize("name", list(COINCIDING))
    def test_inputs_admit_zero_gaps(self, name):
        inputs = theory_inputs(COINCIDING[name], DistributionSpec("bernoulli"))
        assert inputs.delta_c_star == 0.0
        assert (inputs.delta_c == 0.0) == (name == "plain-equal-entries")

    @pytest.mark.parametrize("name", list(COINCIDING))
    def test_zero_gap_voids_only_the_column_envelope(self, name):
        params = COINCIDING[name]
        if isinstance(params, BiDFMParams):
            plain = error_envelope("bidfm", theory_inputs(params, DistributionSpec("bernoulli")))
            assert math.isfinite(plain.f_r)
            assert math.isinf(plain.f_c) == (name == "plain-equal-entries")
            params = BiDCDFMParams.from_bidfm(params)
        corrected = error_envelope("bidcdfm", theory_inputs(params, DistributionSpec("bernoulli")))
        assert math.isfinite(corrected.f_r)
        assert corrected.f_c == math.inf
