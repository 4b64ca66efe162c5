import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bidfm import linalg
from bidfm.detect import bisc, nbisc
from bidfm.errors import ConvergenceError, DimensionError, ValidationError
from bidfm.experiments import estimate_k_eigengap, preset
from bidfm.linalg import (
    as_matrix,
    _lloyd,
    _rng,
    kmeans,
    row_normalize,
    spectral_deviation,
    truncated_svd,
)
from bidfm.model import sample_memberships, sample_theta

from oracles import (
    exhaustive_kmeans_objective,
    jacobi_svd,
    sequential_kmeans,
    sequential_lloyd,
)

# Only an eigsh that takes a generator lets truncated_svd seed the vector
# ARPACK restarts from when the Krylov space runs out; an older one draws it
# from ARPACK's own generator, whose state carries over between calls.
SEEDED_RESTARTS = "rng" in inspect.signature(scipy.sparse.linalg.eigsh).parameters
NO_SEEDED_RESTARTS = "scipy.sparse.linalg.eigsh takes no rng: restarts are not seeded"


def with_nonzeros(shape, count, seed=0):
    """A matrix with exactly ``count`` nonzero entries, uniform in [1, 2), at
    random positions."""
    rng = np.random.default_rng(seed)
    a = np.zeros(shape)
    a.flat[rng.choice(a.size, count, replace=False)] = rng.uniform(1.0, 2.0, count)
    return a


class TestTruncatedSvd:
    def test_identity(self):
        f = truncated_svd(np.eye(3), k=2)
        assert np.allclose(f.singular_values, [1.0, 1.0])
        assert np.allclose(f.left.T @ f.left, np.eye(2), atol=1e-12)
        assert np.allclose(f.right.T @ f.right, np.eye(2), atol=1e-12)

    def test_rank_one(self):
        u = np.array([2.0, 0.0, 0.0])
        v = np.array([0.0, 3.0, 0.0, 0.0])
        f = truncated_svd(np.outer(u, v), k=1)
        assert np.allclose(f.singular_values, [6.0])

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 4))
        f = truncated_svd(a, k=3)
        _, s_ref, _ = jacobi_svd(a)
        assert np.abs(f.singular_values - s_ref[:3]).max() < 1e-8
        # best rank-3 approximations agree
        u, s, v = jacobi_svd(a)
        ref = (u[:, :3] * s[:3]) @ v[:, :3].T
        assert np.abs((f.left * f.singular_values) @ f.right.T - ref).max() < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_agreement_random_sizes(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(2, 51, size=2)
        k = int(rng.integers(1, min(n, m) + 1))
        a = rng.standard_normal((n, m))
        f = truncated_svd(a, k=k)
        _, s_ref, _ = jacobi_svd(a)
        assert np.abs(f.singular_values - s_ref[:k]).max() < 1e-8

    def test_sign_canonicalization(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 5))
        f = truncated_svd(a, k=4)
        peaks = np.abs(f.left).argmax(axis=0)
        assert np.all(f.left[peaks, np.arange(4)] > 0)
        # reconstruction is unaffected by the sign convention
        g = truncated_svd(a, k=4)
        assert np.allclose((f.left * f.singular_values) @ f.right.T,
                           (g.left * g.singular_values) @ g.right.T, atol=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(DimensionError):
            truncated_svd(np.eye(3), k=4)
        with pytest.raises(DimensionError):
            truncated_svd(np.eye(3), k=0)

    def test_rejects_non_finite(self):
        with pytest.raises(DimensionError):
            truncated_svd(np.array([[1.0, np.nan]]), k=1)

    def test_iterative_path_failure_is_convergence_error(self, monkeypatch):
        # 700 x 800 takes the Lanczos path; any ARPACK error it raises is
        # reported as a ConvergenceError
        def failing_eigsh(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
        a = np.random.default_rng(0).uniform(size=(700, 800))
        with pytest.raises(ConvergenceError):
            truncated_svd(a, k=2)

    @pytest.mark.parametrize("shape, share, path", [
        ((50, 60), 1.0, "dense"), ((700, 800), 1.0, "lanczos"), ((700, 800), 0.02, "sparse"),
    ], ids=["dense", "lanczos", "sparse"])
    @pytest.mark.parametrize("factor", [1e300, 1e-200])
    def test_extreme_scales_match_unscaled(self, shape, share, path, factor):
        # near the float limits the products would overflow or underflow
        rng = np.random.default_rng(0)
        u = rng.uniform(size=shape) * (rng.random(shape) < share)
        expected = truncated_svd(u, k=2).singular_values * factor
        got = truncated_svd(u * factor, k=2)
        assert got.path == path
        assert got.singular_values == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("shape, convert, path", [
        ((50, 60), np.asarray, "dense"), ((150, 200), np.asarray, "lanczos"),
        ((150, 200), scipy.sparse.csr_array, "sparse"),
    ], ids=["lapack", "lanczos", "csr"])
    def test_subnormal_matrix_matches_unscaled(self, shape, convert, path):
        # every entry below 2**-1024, where the factor 2**-e would overflow;
        # a 0/1 matrix times 2**-1060 is exact, so the bits must match
        a = (np.random.default_rng(2).random(shape) < 0.5).astype(float)
        expected = truncated_svd(convert(a), k=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = truncated_svd(convert(np.ldexp(a, -1060)), k=2)
            labels = nbisc(convert(np.ldexp(a, -1060)), 2, 2, seed=1)
        assert got.path == expected.path == path
        assert np.array_equal(got.singular_values, np.ldexp(expected.singular_values, -1060))
        assert np.array_equal(got.left, expected.left)
        assert np.array_equal(got.right, expected.right)
        unscaled = nbisc(convert(a), 2, 2, seed=1)
        assert np.array_equal(labels.row_labels.labels, unscaled.row_labels.labels)
        assert np.array_equal(labels.col_labels.labels, unscaled.col_labels.labels)

    def test_no_negative_zero_singular_values(self):
        from bidfm.detect import dscore

        a = np.zeros((700, 800))
        a[:, 0] = 1.0  # rank one: the second singular value is zero
        assert not np.signbit(dscore(a, 2, 3).singular_values).any()
        assert not np.signbit(truncated_svd(a, k=2).singular_values).any()

    @pytest.mark.parametrize("convert", [np.asarray, scipy.sparse.csr_array],
                             ids=["array", "csr"])
    def test_sparse_path_matches_dense(self, convert):
        rng = np.random.default_rng(4)
        rows, cols = rng.integers(0, 3, 700), rng.integers(0, 3, 650)
        blocks = 0.02 * np.array([[4.0, 1.0, 1.0], [1.0, 2.5, 1.0], [1.0, 1.0, 1.5]])
        a = rng.poisson(blocks[np.ix_(rows, cols)]).astype(float)
        f = truncated_svd(convert(a), k=3)
        assert f.path == "sparse"  # about 3% nonzero
        u, s, vt = np.linalg.svd(a)
        assert np.abs(f.singular_values - s[:3]).max() < 1e-10 * s[0]
        assert np.abs(np.abs(f.left) - np.abs(u[:, :3])).max() < 1e-8
        assert np.abs(np.abs(f.right) - np.abs(vt[:3].T)).max() < 1e-8

    @pytest.mark.parametrize("a, operand", [
        (with_nonzeros((700, 800), 5600), "a CSR operand"),
        (np.random.default_rng(0).uniform(size=(700, 800)), "the dense array"),
    ], ids=["sparse", "lanczos"])
    def test_convergence_error_names_the_operand(self, monkeypatch, a, operand):
        def failing_eigsh(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("stub", np.ones(1), None)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
        with pytest.raises(ConvergenceError, match=f"Lanczos on {operand}.*1/2 triplets"):
            truncated_svd(a, k=2)

    def test_convergence_error_counts_the_triplets_found(self, monkeypatch):
        def failing_eigsh(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("stub", np.ones(1), None)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
        a = np.random.default_rng(0).uniform(size=(700, 800))
        with pytest.raises(ConvergenceError) as info:
            truncated_svd(a, k=3)
        assert info.value.found == 1
        assert str(info.value) == ("SVD (Lanczos on the dense array) did not converge "
                                   "within 3000 iterations (1/3 triplets found)")

    @staticmethod
    def spike():
        # one entry 1e300 above noise in [0, 1): every singular value past
        # the first is below Lanczos' resolution
        a = np.random.default_rng(1).uniform(size=(100, 150))
        a[0, 0] = 1e300
        return a

    @pytest.mark.parametrize("make, path", [
        (lambda: np.ones((100, 150)), "lanczos"),
        (lambda: TestTruncatedSvd.spike(), "lanczos"),
        (lambda: np.pad(np.ones((3, 3)), ((0, 97), (0, 147))), "sparse"),
    ], ids=["constant", "spike", "constant-block"])
    @pytest.mark.skipif(not SEEDED_RESTARTS, reason=NO_SEEDED_RESTARTS)
    def test_lanczos_restarts_repeat(self, make, path):
        # the Krylov space runs out on these, and ARPACK restarts from a
        # generated vector: a seeded one, so every call gives the same bits
        a = make()
        runs = [truncated_svd(a, 2) for _ in range(3)]
        assert runs[0].path == path
        for f in runs[1:]:
            for field in ("left", "singular_values", "right"):
                assert np.array_equal(getattr(f, field), getattr(runs[0], field))

    @pytest.mark.skipif(not SEEDED_RESTARTS, reason=NO_SEEDED_RESTARTS)
    def test_lanczos_restarts_repeat_in_labels(self):
        runs = [nbisc(self.spike(), 2, 3, seed=0) for _ in range(4)]
        for r in runs[1:]:
            assert np.array_equal(r.row_labels.labels, runs[0].row_labels.labels)
            assert np.array_equal(r.col_labels.labels, runs[0].col_labels.labels)

    def test_iterative_path_matches_dense(self):
        rng = np.random.default_rng(3)
        low = rng.standard_normal((700, 4)) @ rng.standard_normal((4, 650))
        noise = 0.01 * rng.standard_normal((700, 650))
        a = low + noise
        f = truncated_svd(a, k=3)  # 700 x 650 takes the Lanczos path
        s_ref = np.linalg.svd(a, compute_uv=False)[:3]
        assert np.abs(f.singular_values - s_ref).max() < 1e-8


class TestSvdPathRule:
    """Lanczos wherever it beats LAPACK: a smaller side above 90 and few
    triplets; LAPACK otherwise and for the all-zero matrix."""

    @pytest.mark.parametrize("shape, k, path", [
        ((30, 45), 2, "dense"),
        ((90, 135), 2, "dense"),
        ((91, 135), 2, "lanczos"),
        ((100, 150), 2, "lanczos"),
        ((600, 900), 2, "lanczos"),
        ((200, 300), 26, "dense"),  # k > 25
        ((100, 150), 20, "dense"),  # 5k >= min(n, p)
        ((100, 150), 19, "lanczos"),
    ])
    def test_path(self, shape, k, path):
        a = np.where(np.random.default_rng(0).random(shape) < 0.5, -1.0, 1.0)
        assert truncated_svd(a, k).path == path

    def test_all_zero_matrix_is_dense(self):
        f = truncated_svd(np.zeros((100, 150)), 2)
        assert f.path == "dense"
        assert np.array_equal(f.singular_values, [0.0, 0.0])

    @pytest.mark.parametrize("extra, path", [(0, "sparse"), (1, "lanczos")])
    def test_operand_follows_the_nonzero_share(self, extra, path):
        """At most ``_SPARSE_SHARE`` of the entries nonzero: a CSR operand;
        one entry more: the dense array."""
        n, p = 200, 300
        a = with_nonzeros((n, p), int(linalg._SPARSE_SHARE * n * p) + extra)
        assert truncated_svd(a, 2).path == path

    def test_sparse_input_takes_the_csr_operand_at_any_share(self):
        a = np.where(np.random.default_rng(0).random((100, 150)) < 0.5, -1.0, 1.0)
        assert truncated_svd(scipy.sparse.csr_array(a), 2).path == "sparse"

    @pytest.mark.parametrize("shape, k", [((30, 45), 2), ((100, 150), 20)])
    def test_sparse_input_is_densified_only_for_lapack(self, shape, k):
        a = with_nonzeros(shape, shape[0] * shape[1] // 50)
        f, g = truncated_svd(a, k), truncated_svd(scipy.sparse.csr_matrix(a), k)
        assert f.path == g.path == "dense"
        for name in ("left", "singular_values", "right"):
            assert np.array_equal(getattr(f, name), getattr(g, name))

    def test_all_zero_sparse_matrix_is_dense(self):
        f = truncated_svd(scipy.sparse.csr_array((100, 150)), 2)
        assert f.path == "dense"
        assert np.array_equal(f.singular_values, [0.0, 0.0])


class TestLanczosOperand:
    """ARPACK multiplies the scaled matrix itself: on the ``"lanczos"`` path
    through scipy's ``dgemv`` on a C-ordered copy, whatever the input's
    order, and on the ``"sparse"`` path through the CSR copy."""

    @pytest.mark.parametrize("reorder", [
        np.asfortranarray, lambda a: np.ascontiguousarray(a.T).T,
    ], ids=["fortran", "transposed"])
    def test_memory_order_gives_identical_factors(self, reorder):
        a = np.random.default_rng(5).uniform(size=(600, 900))
        b = reorder(a)
        assert b.flags.f_contiguous and not b.flags.c_contiguous
        f, g = truncated_svd(a, 3), truncated_svd(b, 3)
        assert f.path == g.path == "lanczos"
        for name in ("left", "singular_values", "right"):
            assert np.array_equal(getattr(f, name), getattr(g, name)), name

    @pytest.mark.parametrize("operand", ["array", "csr"])
    @pytest.mark.parametrize("shape", [(600, 900), (900, 600)], ids=["600x900", "900x600"])
    def test_lanczos_triplets_match_numpy(self, shape, operand):
        # three planted singular values above the noise, at most 5% nonzero
        rng = np.random.default_rng(6)
        rows, cols = rng.integers(3, size=shape[0]), rng.integers(3, size=shape[1])
        mean = np.where(rows[:, None] == cols, 0.04, 0.005)
        a = np.where(rng.uniform(size=shape) < mean, rng.uniform(0.5, 1.0, shape), 0.0)
        assert 0 < np.count_nonzero(a) <= 0.05 * a.size
        if operand == "array":
            a += rng.uniform(-0.01, 0.01, shape)
        v0 = np.linspace(1.0, 2.0, min(shape))
        u, s, vt = linalg._lanczos(a if operand == "array" else scipy.sparse.csr_array(a),
                                   3, v0 / np.linalg.norm(v0), 3000)
        assert u.shape == (shape[0], 3) and vt.shape == (3, shape[1])
        assert np.max(np.linalg.norm(a @ vt.T - u * s, axis=0)) <= 1e-10 * s[0]
        assert np.allclose(s, np.linalg.svd(a, compute_uv=False)[:3], rtol=1e-12, atol=0)


def _mostly_zero(case):
    """A 150x200 matrix with about 3% of its entries nonzero, altered as
    ``case`` names."""
    rng = np.random.default_rng(4)
    a = np.where(rng.random((150, 200)) < 0.03, rng.standard_normal((150, 200)), 0.0)
    if case == "fortran":
        a = np.asfortranarray(a)
    elif case == "negative":
        a = -np.abs(a)
    elif case == "single":
        a = np.zeros_like(a)
        a[7, 11] = -3.0
    elif case == "negative-zero":
        a[(a == 0) & (rng.random(a.shape) < 0.3)] = -0.0
    elif case == "subnormal":
        a[a > 1] = 4e-320
    elif case == "all-subnormal":
        a *= 1e-310
    elif case == "empty-row":
        a[[0, 5, 149]] = 0.0
    return a


MOSTLY_ZERO = ["c", "fortran", "negative", "negative-zero", "subnormal", "all-subnormal",
               "empty-row", pytest.param("single", marks=pytest.mark.skipif(
                   not SEEDED_RESTARTS, reason=NO_SEEDED_RESTARTS))]


class TestCsrOperandOfADenseMatrix:
    """On the ``"sparse"`` path a dense matrix's CSR operand is read off the
    mask of its nonzeros: the arrays scipy's ``csr_array`` builds from it,
    so the factors are those of the CSR input, bit for bit."""

    @pytest.mark.parametrize("case", MOSTLY_ZERO)
    def test_factors_equal_the_csr_input_factors(self, case):
        a = _mostly_zero(case)
        f, g = truncated_svd(a, 2), truncated_svd(scipy.sparse.csr_array(a), 2)
        assert f.path == g.path == "sparse"
        for name in ("left", "singular_values", "right"):
            assert np.array_equal(getattr(f, name), getattr(g, name)), name

    @pytest.mark.parametrize("case", ["c", "fortran", "negative-zero", "empty-row"])
    def test_operand_holds_scipys_arrays(self, case, monkeypatch):
        operands, built_from = [], []
        lanczos, csr_array = linalg._lanczos, scipy.sparse.csr_array

        def capture(a, *args):
            operands.append(a)
            return lanczos(a, *args)

        def spy(arg, *args, **kwargs):
            built_from.append(type(arg))
            return csr_array(arg, *args, **kwargs)

        a = _mostly_zero(case)
        monkeypatch.setattr(linalg, "_lanczos", capture)
        monkeypatch.setattr(scipy.sparse, "csr_array", spy)
        truncated_svd(a, 2)
        assert np.ndarray not in built_from  # no float scan of the dense array
        truncated_svd(csr_array(a), 2)
        mine, scipys = operands
        for name in ("indptr", "indices", "data"):
            x, y = getattr(mine, name), getattr(scipys, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name

    def test_fortran_input_is_not_copied(self):
        # an F-ordered 2000x2000 matrix at 1%: its mask and the CSR arrays,
        # far below one float64 copy (32 MB)
        rng = np.random.default_rng(8)
        a = np.asfortranarray(np.where(rng.random((2000, 2000)) < 0.01, 1.0, 0.0))
        tracemalloc.start()
        try:
            f = truncated_svd(a, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.path == "sparse"
        assert peak < a.nbytes / 2


class TestSparseInput:
    def test_kept_sparse_as_float_csr(self):
        m = scipy.sparse.coo_matrix(np.eye(3, 4, dtype=int))
        a = as_matrix(m, sparse=True)
        assert isinstance(a, scipy.sparse.csr_array) and a.dtype == np.float64
        assert np.array_equal(a.toarray(), np.eye(3, 4))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_stored_value_rejected(self, value):
        m = scipy.sparse.csr_array(np.array([[1.0, 0.0], [0.0, value]]))
        with pytest.raises(DimensionError, match="non-finite"):
            as_matrix(m, sparse=True)
        with pytest.raises(DimensionError, match="non-finite"):
            truncated_svd(m, 1)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError, match="non-empty"):
            as_matrix(scipy.sparse.csr_array((0, 5)), sparse=True)

    def test_one_dimensional_rejected(self):
        with pytest.raises(DimensionError, match="2-dimensional"):
            as_matrix(scipy.sparse.coo_array(np.array([1.0, 0.0, 2.0])), sparse=True)

    def test_dense_only_callers_reject_sparse(self):
        m = scipy.sparse.csr_array(np.eye(4))
        with pytest.raises(DimensionError, match="dense array"):
            as_matrix(m)
        with pytest.raises(DimensionError):
            kmeans(m, 2, seed=0)
        with pytest.raises(DimensionError):
            row_normalize(m)


class TestInputContract:
    """Input that is not a matrix of real numbers raises ``ValidationError``,
    never a truncating cast or a raw numpy error."""

    @pytest.mark.parametrize("make", [
        lambda a: a + 5j,
        lambda a: (a + 5j).astype(np.complex64),
        lambda a: scipy.sparse.csr_array(a + 1j),
    ], ids=["complex128", "complex64", "sparse-complex"])
    def test_complex_rejected(self, make):
        m = make(np.arange(6.0).reshape(2, 3))
        with pytest.raises(ValidationError, match="must be real"):
            as_matrix(m, sparse=True)
        with pytest.raises(ValidationError, match="must be real"):
            truncated_svd(m, 1)

    def test_complex_rejected_by_the_methods(self):
        a = np.random.default_rng(3).random((20, 30))
        with pytest.raises(ValidationError, match="must be real"):
            nbisc(a + 5j, 2, 3)

    @pytest.mark.parametrize("m", [
        [["a", "b"], ["c", "d"]], [[1, 2], [3]], {"a": 1}, [[1.0, 10**400]],
        np.array([[1.0, {}]], dtype=object),
    ], ids=["strings", "ragged", "dict", "int-beyond-float", "object-dict"])
    def test_not_numbers_rejected(self, m):
        with pytest.raises(ValidationError, match="array of real numbers"):
            as_matrix(m)
        with pytest.raises(ValidationError, match="array of real numbers"):
            kmeans(m, 1, seed=0)

    @pytest.mark.parametrize("m, entries", [
        ([["1.5", "2"], ["3", "4"]], "strings"),
        (np.array([[b"1", b"2"]]), "bytes"),
        (np.array([["1.5", 2.0]], dtype=object), "strings"),
        (np.array([[1.0, b"2"]], dtype=object), "bytes"),
        ([[True, False], [False, True]], "booleans"),
        (np.array([[1.0, True]], dtype=object), "booleans"),
        (np.array([[1.0, np.True_]], dtype=object), "booleans"),
        (scipy.sparse.csr_array(np.eye(3, dtype=bool)), "booleans"),
    ], ids=["strings", "bytes", "object-strings", "object-bytes", "bools", "object-bool",
            "object-numpy-bool", "sparse-bools"])
    def test_entries_that_cast_to_float_but_are_not_numbers_rejected(self, m, entries):
        message = f"^matrix must be an array of real numbers, got {entries}$"
        with pytest.raises(ValidationError, match=message):
            as_matrix(m, sparse=True)
        with pytest.raises(ValidationError, match=message.replace("matrix", "omega", 1)):
            as_matrix(m, "omega", sparse=True)
        with pytest.raises(ValidationError, match=message):
            nbisc(m, 1, 2)

    def test_object_array_of_numbers_accepted(self):
        a = as_matrix(np.array([[1, 2.5], [np.float32(3), np.int8(4)]], dtype=object))
        assert a.dtype == np.float64 and np.array_equal(a, [[1.0, 2.5], [3.0, 4.0]])


class TestRowNormalize:
    def test_three_four_five(self):
        out = row_normalize(np.array([[3.0, 4.0]]))
        assert np.allclose(out.matrix, [[0.6, 0.8]])
        assert out.degenerate_rows == ()

    def test_zero_row_reported(self):
        out = row_normalize(np.array([[0.0, 0.0]]))
        assert np.array_equal(out.matrix, [[0.0, 0.0]])
        assert out.degenerate_rows == (1,)

    @pytest.mark.parametrize("scale", [1e300, 1.7e308], ids=["1e300", "float-max"])
    def test_huge_rows_unit_norm(self, scale):
        a = scale * np.array([[1.0, 1.0], [0.6, 0.8], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = row_normalize(a)
        assert np.abs(np.linalg.norm(out.matrix, axis=1) - 1.0).max() < 1e-15
        assert out.degenerate_rows == ()

    def test_tiny_rows_reported_not_warned(self):
        # norms near 1e-300 lie below ZERO_FLOOR: the rows stay as they are
        a = np.array([[1e-300, 1e-300], [3e-300, 4e-300], [1e-310, 0.0], [3.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = row_normalize(a)
        assert np.array_equal(out.matrix[:3], a[:3])
        assert np.allclose(out.matrix[3], [0.6, 0.8])
        assert out.degenerate_rows == (1, 2, 3)

    def test_random_rows_unit_norm(self):
        rng = np.random.default_rng(5)
        out = row_normalize(rng.standard_normal((5, 3)))
        assert np.abs(np.linalg.norm(out.matrix, axis=1) - 1.0).max() < 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_on_normalizable_rows(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 3))
        once = row_normalize(a).matrix
        twice = row_normalize(once).matrix
        assert np.abs(once - twice).max() < 1e-12


class TestKMeans:
    def test_separates_two_clouds(self):
        rng = np.random.default_rng(0)
        a = np.concatenate(
            [0.01 * rng.standard_normal((5, 2)), 10.0 + 0.01 * rng.standard_normal((5, 2))]
        )
        result = kmeans(a, 2, seed=0)
        assert len(set(result.labels[:5])) == 1
        assert len(set(result.labels[5:])) == 1
        assert result.labels[0] != result.labels[5]
        assert result.converged

    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((7, 3))
        result = kmeans(a, 1, seed=0)
        assert np.allclose(result.centroids[0], a.mean(axis=0))
        assert np.all(result.labels == 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_exhaustive_partition_oracle(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((8, 2))
        result = kmeans(points, 2, seed=3)
        best = exhaustive_kmeans_objective(points, k=2)
        assert result.objective <= best + 1e-9
        assert result.objective >= best - 1e-9

    def test_objective_consistent_with_labels(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((20, 3))
        result = kmeans(a, 4, seed=1)
        direct = sum(
            ((a[result.labels == c] - result.centroids[c - 1]) ** 2).sum()
            for c in range(1, 5)
        )
        assert abs(result.objective - direct) <= 1e-9 * max(direct, 1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 2))
        r1 = kmeans(a, 3, seed=11)
        r2 = kmeans(a, 3, seed=11)
        assert np.array_equal(r1.labels, r2.labels)
        assert r1.objective == r2.objective

    def test_k_exceeds_rows(self):
        with pytest.raises(DimensionError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((12, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        r1 = kmeans(a, 3, seed=9)
        r2 = kmeans(a @ q, 3, seed=9)
        assert np.array_equal(r1.labels, r2.labels)

    def test_lloyd_monotone_descent(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((40, 2))
        centers = a[:5].copy()
        *_, (history,) = _lloyd(a, centers[None], max_iter=50)
        assert all(later <= earlier + 1e-12 for earlier, later in zip(history, history[1:]))

    def test_exactly_k_clusters_with_duplicates(self):
        a = np.array([[0.0, 0.0]] * 6 + [[5.0, 5.0]] * 2)
        result = kmeans(a, 3, seed=0)
        assert set(result.labels) == {1, 2, 3}

    @pytest.mark.parametrize("seed", [0, 3])
    def test_fewer_distinct_rows_than_k_settles(self, seed):
        # two distinct rows, three clusters: the repair must not empty the
        # singleton cluster, and the iterations must not trade copies forever
        x = np.zeros((30, 1))
        x[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kmeans(x, 3, seed=seed)
        assert result.converged and result.iterations < 10
        assert set(result.labels) == {1, 2, 3}
        assert result.objective == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(k=2.5), dict(k=True), dict(seed=-1), dict(seed=1.5), dict(seed=True),
    ], ids=["float-k", "bool-k", "negative-seed", "float-seed", "bool-seed"])
    def test_bad_arguments_rejected(self, kwargs):
        a = np.arange(12.0).reshape(6, 2)
        with pytest.raises(ValidationError):
            kmeans(a, **{"k": 2, "seed": 0, **kwargs})

    def test_numpy_integer_arguments_accepted(self):
        a = np.arange(12.0).reshape(6, 2)
        expected = kmeans(a, 2, seed=3)
        result = kmeans(a, np.int64(2), seed=np.int64(3))
        assert np.array_equal(result.labels, expected.labels)

    @pytest.mark.parametrize("seed, first_best", [(2, 3), (5, 5), (13, 5)])
    def test_objective_is_first_minimal_restart_objective(self, seed, first_best):
        # five overlapping clouds: the restarts end in different local
        # optima, and two or more of them reach the least objective, the
        # first of them after worse ones
        rng = np.random.default_rng(seed)
        centres = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0], [1.5, 1.5]])
        a = np.repeat(centres, 5, axis=0) + 0.6 * rng.standard_normal((25, 2))
        result = kmeans(a, 5, seed=seed)
        objectives = result.restart_objectives
        assert len(objectives) == 10
        assert result.objective == min(objectives)
        assert objectives.index(result.objective) == first_best
        assert objectives.count(result.objective) >= 2
        runs, best = sequential_kmeans(a, 5, seed)
        assert best == first_best
        assert np.array_equal(result.labels, runs[best][0])


class TestRng:
    @pytest.mark.parametrize("spawn_key", [(), (0,), (7,)])
    def test_streams_match_seed_sequence(self, spawn_key):
        reference = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=11, spawn_key=spawn_key))
        )
        assert np.array_equal(_rng(11, spawn_key).random(8), reference.random(8))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError):
            _rng(seed)


# each caller of linalg._count: id -> (call, error, what the message says)
COUNT_CASES = {
    "svd-float-k-dense": (lambda: truncated_svd(np.eye(5), 2.5),
                          ValidationError, "k must be an integer"),
    "svd-float-k-lanczos": (lambda: truncated_svd(np.eye(200), 2.5),
                            ValidationError, "k must be an integer"),
    "svd-k-above-rank": (lambda: truncated_svd(np.eye(5), 6),
                         DimensionError, r"k=6 must be in \[1, 5\]"),
    "eigengap-float-m": (lambda: estimate_k_eigengap(np.eye(5), m=2.5),
                         ValidationError, "m must be an integer"),
    "eigengap-zero-m": (lambda: estimate_k_eigengap(np.eye(5), m=0),
                        DimensionError, r"m=0 must be in \[1, 5\]"),
    "kmeans-bool-k": (lambda: kmeans(np.eye(5), True, 0),
                      ValidationError, "k must be an integer"),
    "kmeans-zero-k": (lambda: kmeans(np.eye(5), 0, 0),
                      DimensionError, r"k=0 must be in \[1, 5\]"),
    "detect-float-kc": (lambda: bisc(np.eye(5), 2, 2.0),
                        ValidationError, "k_c must be an integer"),
    "detect-kc-above-columns": (lambda: bisc(np.ones((5, 4)), 2, 5),
                                DimensionError, r"k_c=5 must be in \[1, 4\]"),
    "memberships-zero-k": (lambda: sample_memberships(10, 0, 0),
                           DimensionError, "k=0 must be at least 1"),
    "memberships-float-k": (lambda: sample_memberships(10, 1.5, 0),
                            ValidationError, "k must be an integer"),
    "memberships-float-n": (lambda: sample_memberships(2.5, 2, 0),
                            ValidationError, "n must be an integer"),
    "memberships-huge-n": (lambda: sample_memberships(10**29, 2, 0),
                           DimensionError, r"n=10{29} must be in \[1, 9223372036854775807\]"),
    "theta-negative-n": (lambda: sample_theta(-1, 0.5, 0),
                         DimensionError, r"n=-1 must be in \[1, "),
    "theta-float-n": (lambda: sample_theta(2.5, 0.5, 0),
                      ValidationError, "n must be an integer"),
    "simulation-float-replicates": (lambda: preset("sim3a", replicates=2.5),
                                    ValidationError, "replicates must be an integer"),
    "simulation-bool-replicates": (lambda: preset("sim3a", replicates=True),
                                   ValidationError, "replicates must be an integer"),
    "simulation-zero-replicates": (lambda: preset("sim3a", replicates=0),
                                   DimensionError, "replicates=0 must be at least 1"),
}


@pytest.mark.parametrize("call, error, message", COUNT_CASES.values(), ids=COUNT_CASES)
def test_every_count_passes_one_check(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _assert_matches_sequential(x, k, seed, **kwargs):
    """``kmeans`` against the sequential reference: labels, iterations and
    convergence bit for bit; centroids and every restart's objective bit for
    bit for d >= 2.  For d = 1 numpy sums a one-column cluster's rows
    pairwise where the centroid update sums them in order, so those agree
    to the error bound of an n-term sum."""
    result = kmeans(x, k, seed=seed)
    runs, best = sequential_kmeans(x, k, seed, **kwargs)
    labels, centroids, _, iterations, converged = runs[best]
    assert np.array_equal(result.labels, labels)
    assert (result.iterations, result.converged) == (iterations, converged)
    objectives = tuple(run[2] for run in runs)
    if x.shape[1] > 1:
        assert np.array_equal(result.centroids, centroids)
        assert result.restart_objectives == objectives
        assert result.objective == objectives[best]
    else:
        bound = len(x) * np.finfo(float).eps
        assert np.abs(result.centroids - centroids).max() <= bound * np.abs(x).max()
        assert np.allclose(result.restart_objectives, objectives,
                           rtol=0.0, atol=bound * (x ** 2).sum())


class TestKMeansAgainstSequential:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, 30, 150, 1000])
    def test_clouds(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        means = 3.0 * rng.standard_normal((3, d))
        x = means[np.arange(n) % 3] + rng.standard_normal((n, d))
        for k in (1, 2, 3, 4):
            for seed in (0, 5):
                _assert_matches_sequential(x, k, seed)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dyadic_duplicates_and_fewer_distinct_rows_than_k(self, d):
        # entries are multiples of 1/4 and the counts are small, so every
        # centroid sum is exact in any order and d = 1 must match bit for
        # bit too; k = 4 and 5 exceed the three distinct rows
        rng = np.random.default_rng(d)
        rows = rng.integers(-8, 8, size=(3, d)) / 4.0
        x = np.repeat(rows, [2, 9, 20], axis=0)[rng.permutation(31)]
        for k in (2, 3, 4, 5):
            for seed in (0, 1, 2):
                _assert_matches_sequential(x, k, seed)
                result = kmeans(x, k, seed=seed)
                assert set(result.labels) == set(range(1, k + 1))

    @pytest.mark.parametrize("d", [2, 3])
    def test_duplicates_and_fewer_distinct_rows_than_k(self, d):
        rng = np.random.default_rng(10 + d)
        x = np.repeat(rng.standard_normal((3, d)), [3, 9, 20], axis=0)[rng.permutation(32)]
        for k in (2, 3, 4, 5):
            for seed in (0, 1, 2):
                _assert_matches_sequential(x, k, seed)

    def test_iteration_cap(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 2))
        for max_iter in (1, 2, 3):
            monkeypatch.setattr(linalg, "_MAX_ITER", max_iter)
            _assert_matches_sequential(x, 4, 0, max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [2, 300])
    def test_lockstep_restarts_repair_and_stop_as_they_would_alone(self, max_iter):
        # three center sets stacked: an ordinary one, one whose third center
        # lies far from every row and one with two equal centers; the last
        # two leave a cluster empty in the first assignment, so they are
        # repaired, and the first stops an iteration before the others
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.standard_normal((20, 2)), 5.0 + rng.standard_normal((20, 2)),
                            np.repeat([[9.0, 9.0]], 3, axis=0)])
        starts = np.stack([x[[0, 25, 41]], np.array([[0.0, 0.0], [5.0, 5.0], [90.0, -90.0]]),
                           x[[3, 3, 30]]])
        labels, centers, objectives, iterations, converged, histories = _lloyd(
            x, starts, max_iter)
        assert iterations == sum(len(h) for h in histories)
        assert isinstance(iterations, int)
        for r, start in enumerate(starts):
            o_labels, o_centers, o_objective, o_iterations, o_converged, o_history = (
                sequential_lloyd(x, start.copy(), max_iter))
            assert np.array_equal(labels[r], o_labels)
            assert np.array_equal(centers[r], o_centers)
            assert objectives[r] == o_objective
            assert (len(histories[r]), bool(converged[r])) == (o_iterations, o_converged)
            assert histories[r] == o_history


    @pytest.mark.parametrize("max_iter", [2, 300])
    def test_lockstep_restarts_on_their_own_inputs(self, max_iter):
        # four restarts, each on its own input (d = 3): a clouds input, its
        # negation, an input with two zero columns and one with three
        # distinct rows; the second and fourth start from repeated centers,
        # which leave a cluster empty in the first assignment
        rng = np.random.default_rng(12)
        clouds = np.repeat(3.0 * rng.standard_normal((3, 3)), 15, axis=0)
        clouds += rng.standard_normal((45, 3))
        narrow = np.pad(rng.standard_normal((45, 1)), ((0, 0), (0, 2)))
        few = np.repeat(rng.integers(-4, 4, (3, 3)) / 2.0, [5, 10, 30], axis=0)
        x = np.stack([clouds, -clouds, narrow, few])
        starts = np.stack([clouds[[0, 20, 40]], -clouds[[5, 5, 44]], narrow[[1, 2, 3]],
                           few[[0, 0, 44]]])
        labels, centers, objectives, iterations, converged, histories = _lloyd(
            x, starts, max_iter)
        assert iterations == sum(len(h) for h in histories)
        for r, start in enumerate(starts):
            o_labels, o_centers, o_objective, o_iterations, o_converged, o_history = (
                sequential_lloyd(x[r], start.copy(), max_iter))
            assert np.array_equal(labels[r], o_labels), r
            assert np.array_equal(centers[r], o_centers), r
            assert objectives[r] == o_objective, r
            assert (len(histories[r]), bool(converged[r])) == (o_iterations, o_converged), r
            assert histories[r] == o_history, r


class TestKMeansFits:
    """``_kmeans_fits`` clusters several inputs of one side in one lockstep
    loop; each comes out as ``kmeans`` gives it alone, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_inputs_of_every_width_match_kmeans_alone(self, k):
        rng = np.random.default_rng(k)
        xs = [rng.standard_normal((60, d)) + 2.0 * rng.standard_normal((5, d))[np.arange(60) % 5]
              for d in (2, 1, 4, 3, 2)]
        xs.append(np.repeat(xs[1][:3], 20, axis=0))  # three distinct rows
        for seed in (0, 9):
            for x, fit in zip(xs, linalg._kmeans_fits(xs, k, seed)):
                alone = kmeans(x, k, seed=seed)
                assert np.array_equal(fit.labels, alone.labels)
                assert fit.centroids.shape == (k, x.shape[1])
                assert np.array_equal(fit.centroids, alone.centroids)
                assert (fit.objective, fit.restart_objectives) == (
                    alone.objective, alone.restart_objectives)
                assert (fit.iterations, fit.converged) == (alone.iterations, alone.converged)


class TestSpectralDeviation:
    def test_zero_for_equal(self):
        a = np.arange(6.0).reshape(2, 3)
        assert spectral_deviation(a, a) == 0.0

    def test_diagonal(self):
        a = np.diag([5.0, 2.0])
        assert abs(spectral_deviation(a, np.zeros((2, 2))) - 5.0) < 1e-12

    def test_matches_jacobi_sigma1(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((5, 7))
        _, s, _ = jacobi_svd(a - b)
        assert abs(spectral_deviation(a, b) - s[0]) < 1e-8

    def test_matches_full_spectral_norm_on_lanczos_path(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((120, 180))
        b = rng.standard_normal((120, 180))
        assert truncated_svd(a - b, 1).path == "lanczos"
        assert spectral_deviation(a, b) == pytest.approx(np.linalg.norm(a - b, 2), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            spectral_deviation(np.zeros((2, 2)), np.zeros((2, 3)))
