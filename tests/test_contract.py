"""Property-based contracts: every input gives a result or a ``BidfmError``.

The first property drives the parameter constructors with values of every
type a Python caller might pass.  The second drives the five methods and
``run_algorithms`` on drawn matrices, from 1x1 up to 150 per side so that
the Lanczos path runs too, across the whole exponent range.  A method on a
matrix is ``run_algorithms`` with its one name, so the second property
compares each method's one read-out, clustered alone, with the five
clustered together.  Warnings are errors in this suite
(``filterwarnings = error``), so a warning fails too.
"""
import dataclasses
import inspect
import sys

import numpy as np
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bidfm import detect
from bidfm.detect import ALGORITHMS, DetectionResult, run_algorithms
from bidfm.errors import BidfmError
from bidfm.model import P1, BiDCDFMParams, BiDFMParams, Membership, sample_theta
from bidfm.sampling import DistributionSpec
from bidfm.theory import TheoryInputs, deviation_bound, error_envelope

# values of every type a Python caller might pass where a number goes
_VALUES = st.one_of(
    st.integers(-3, 40), st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
    st.text(max_size=3), st.none(), st.integers(-3, 40).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64), st.booleans().map(np.bool_),
    st.integers(10**300, 10**400),
)
_ROWS, _COLS = Membership([1, 2, 1, 2]), Membership([1, 2, 3, 1, 2, 3])
# Only an eigsh that takes a generator lets truncated_svd seed the vector
# ARPACK restarts from when the Krylov space runs out; an older one draws it
# from ARPACK's own generator, whose state carries over between calls, so a
# matrix that runs it out can give other bits from call to call.  There the
# second property checks each result's labels only.
SEEDED_RESTARTS = "rng" in inspect.signature(scipy.sparse.linalg.eigsh).parameters
_THEORY_FIELDS = [f.name for f in dataclasses.fields(TheoryInputs) if f.name != "tau_is_empirical"]
_THEORY = dict(n_r=200, n_c=300, k_r=2, k_c=2, sigma_min_mixing=0.5, gamma=1.0, tau=1.0,
               n_r_min=90, n_r_max=110, n_c_min=140, n_c_max=160, rho=0.5)


def _builds(call):
    """Run ``call``; a ``BidfmError`` is an answer, any other exception fails."""
    try:
        call()
    except BidfmError:
        pass


@settings(max_examples=150, deadline=2000, derandomize=True)
@given(value=_VALUES, other=_VALUES, field=st.sampled_from(_THEORY_FIELDS),
       theta=st.lists(_VALUES, min_size=4, max_size=4))
def test_constructors_build_or_raise_a_bidfm_error(value, other, field, theta):
    _builds(lambda: BiDFMParams(_ROWS, _COLS, P1, value))
    _builds(lambda: BiDCDFMParams(_ROWS, _COLS, P1, theta, [0.5] * 6))
    _builds(lambda: Membership([1, 2, 2], n_clusters=value))
    _builds(lambda: sample_theta(5, value, 0, floor=other))
    _builds(lambda: DistributionSpec("normal", sigma2=value))
    _builds(lambda: TheoryInputs(**{**_THEORY, field: value}))
    inputs = TheoryInputs(**_THEORY, delta_c=0.2)
    _builds(lambda: deviation_bound("bidfm", inputs, c_alpha=value))
    _builds(lambda: error_envelope("bidfm", inputs, c=value))


@st.composite
def _matrices(draw):
    """A matrix drawn from a seed and a recipe: a block structure or plain
    noise, possibly of low rank, scaled by a power of two from the
    subnormals to the float maximum, signed or not, with a share of zeros,
    zeroed and duplicated rows and columns, float-max entries, in C or F
    order."""
    side = st.one_of(st.integers(1, 12), st.integers(1, 150), st.integers(91, 150))
    n_r, n_c = draw(side), draw(side)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # blocks plus noise, so the methods find structure
        blocks = rng.uniform(-1, 1, (3, 4))
        a = blocks[rng.integers(0, 3, n_r)][:, rng.integers(0, 4, n_c)]
        a = a + 0.3 * rng.standard_normal((n_r, n_c))
    else:
        a = rng.uniform(-1, 1, (n_r, n_c))
    rank = draw(st.sampled_from([None, 1, 2, 3]))
    if rank is not None:  # rank deficient
        a = rng.uniform(-1, 1, (n_r, rank)) @ rng.uniform(-1, 1, (rank, n_c))
    if not draw(st.booleans()):
        a = np.abs(a)
    a[rng.random(a.shape) < draw(st.sampled_from([0.0, 0.3, 0.8, 0.97]))] = 0.0
    a[rng.integers(0, n_r, draw(st.integers(0, 3))), :] = 0.0
    a[:, rng.integers(0, n_c, draw(st.integers(0, 3)))] = 0.0
    for _ in range(draw(st.integers(0, 3))):
        a[rng.integers(n_r)] = a[rng.integers(n_r)]
    a = np.ldexp(a / max(np.abs(a).max(), 1e-300), draw(st.integers(-1074, 1023)))
    for _ in range(draw(st.integers(0, 2))):  # entries at the float maximum
        a[rng.integers(n_r), rng.integers(n_c)] = rng.choice([-1, 1]) * sys.float_info.max
    return np.asfortranarray(a) if draw(st.booleans()) else np.ascontiguousarray(a)


def _outcomes(a, k_r, k_c, seed):
    """Each method's result alone and through ``run_algorithms``, checked
    against the contract, as comparable tuples."""
    alone = []
    for name in ALGORITHMS:
        try:
            result = getattr(detect, name)(a, k_r, k_c, seed=seed)
        except BidfmError as exc:
            result = exc
        alone.append((name, _outcome(result, a, k_r, k_c)))
    shared = [(name, _outcome(result, a, k_r, k_c))
              for name, result in run_algorithms(ALGORITHMS, a, k_r, k_c, seed)]
    assert shared == alone or not SEEDED_RESTARTS
    return shared


def _outcome(result, a, k_r, k_c):
    """Labels in 1..k on each side, as bytes, or the error's class name."""
    if isinstance(result, BidfmError):
        return type(result).__name__
    assert isinstance(result, DetectionResult)
    for membership, n, k in ((result.row_labels, a.shape[0], k_r),
                             (result.col_labels, a.shape[1], k_c)):
        assert membership.n_clusters == k and len(membership) == n
        assert membership.labels.min() >= 1 and membership.labels.max() <= k
    return (result.row_labels.labels.tobytes(), result.col_labels.labels.tobytes(),
            result.singular_values.tobytes())


@settings(max_examples=80, deadline=4000, derandomize=True)
@given(a=_matrices(), k_r=st.integers(1, 4), k_c=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_methods_give_labels_or_a_bidfm_error(a, k_r, k_c, seed):
    first = _outcomes(a, k_r, k_c, seed)
    if not SEEDED_RESTARTS:
        return
    assert _outcomes(a.copy(order="K"), k_r, k_c, seed) == first  # a rerun: the same bits
    # the other memory order: the same labels, or the same error.  The
    # Laplacian's degrees are numpy sums, whose order follows the memory
    # layout, so disim and rdscore are held to the same error only.
    other = np.asfortranarray(a) if a.flags.c_contiguous else np.ascontiguousarray(a)
    assert _labels(_outcomes(other, k_r, k_c, seed)) == _labels(first)


def _labels(outcomes):
    """Each outcome's error class name, or its labels (only that it gave
    labels, for the Laplacian methods)."""
    return [(name, o if isinstance(o, str) else None if name in ("disim", "rdscore") else o[:2])
            for name, o in outcomes]
