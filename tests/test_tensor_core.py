from concurrent.futures import ThreadPoolExecutor
import ctypes
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from volrank import errors, metrics, s3dsvd, tensor_core as tc, volume_io

from test_cli import _subprocess_env
from oracles import (
    fold,
    inner_product_loop,
    jacobi_singular_values,
    mode_product_loop,
    outer3_loop,
)

RNG = np.random.default_rng(20260814)


def random_tensor(dims, rng=RNG):
    return rng.standard_normal(dims)


class TestInnerProduct:
    def test_all_ones_with_itself(self):
        ones = np.ones((2, 2, 2))
        assert tc.inner_product(ones, ones) == 8.0

    def test_zero_annihilator(self):
        x = random_tensor((3, 4, 5))
        assert tc.inner_product(x, np.zeros((3, 4, 5))) == 0.0

    def test_matches_loop_oracle(self):
        a = random_tensor((3, 4, 5))
        b = random_tensor((3, 4, 5))
        expected = inner_product_loop(a, b)
        assert tc.inner_product(a, b) == pytest.approx(expected, rel=1e-14)

    def test_symmetry(self):
        a = random_tensor((4, 3, 2))
        b = random_tensor((4, 3, 2))
        assert tc.inner_product(a, b) == pytest.approx(
            tc.inner_product(b, a), rel=1e-14
        )

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeError):
            tc.inner_product(np.ones((2, 2, 2)), np.ones((2, 2, 3)))


class TestFrobeniusNorm:
    def test_all_ones(self):
        assert tc.frobenius_norm(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8.0))

    def test_zero(self):
        assert tc.frobenius_norm(np.zeros((2, 3, 4))) == 0.0

    def test_matches_loop_oracle(self):
        x = random_tensor((4, 4, 4))
        expected = np.sqrt(inner_product_loop(x, x))
        assert tc.frobenius_norm(x) == pytest.approx(expected, rel=1e-14)

    def test_norm_squared_equals_inner(self):
        x = random_tensor((5, 4, 3))
        assert tc.frobenius_norm(x) ** 2 == pytest.approx(
            tc.inner_product(x, x), rel=1e-14
        )

    def test_overflowing_squares_are_rescaled(self):
        # Each square is 1e400, so the plain sum of squares overflows; that
        # overflow is handled, so it must not surface as a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = tc.frobenius_norm(np.full((8, 8, 8), 1e200))
        assert norm == pytest.approx(1e200 * np.sqrt(512.0), rel=1e-15)

    def test_non_finite_entries_stay_non_finite(self):
        assert tc.frobenius_norm(np.full((2, 2, 2), np.inf)) == np.inf
        assert np.isnan(tc.frobenius_norm(np.full((2, 2, 2), np.nan)))


class TestOuter3:
    def test_basis_vectors(self):
        t = tc.outer3([1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 1.0
        assert np.array_equal(t, expected)

    def test_zero_vector_gives_zero(self):
        t = tc.outer3([1.0, 2.0], [3.0, 4.0], [0.0, 0.0])
        assert np.array_equal(t, np.zeros((2, 2, 2)))

    def test_matches_loop_oracle(self):
        u, v, w = [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]
        t = tc.outer3(u, v, w)
        assert t[1, 1, 1] == 48.0
        assert np.allclose(t, outer3_loop(u, v, w), rtol=1e-14, atol=0)

    def test_empty_vector(self):
        with pytest.raises(errors.ShapeError):
            tc.outer3([], [1.0], [1.0])

    def test_separable_inner_product_identity(self):
        rng = np.random.default_rng(7)
        u1, v1, w1 = rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(6)
        u2, v2, w2 = rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(6)
        lhs = tc.inner_product(tc.outer3(u1, v1, w1), tc.outer3(u2, v2, w2))
        rhs = float(u1 @ u2) * float(v1 @ v2) * float(w1 @ w2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestUnfoldFold:
    # 2x2x2 tensor with x[i, j, k] = 4i + 2j + k, unfolded by hand under
    # the lower-remaining-mode-fastest column convention.
    HAND_TENSOR = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
    HAND_UNFOLDINGS = {
        1: [[0.0, 2.0, 1.0, 3.0], [4.0, 6.0, 5.0, 7.0]],
        2: [[0.0, 4.0, 1.0, 5.0], [2.0, 6.0, 3.0, 7.0]],
        3: [[0.0, 4.0, 2.0, 6.0], [1.0, 5.0, 3.0, 7.0]],
    }

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_hand_enumerated_unfolding(self, mode):
        m = tc.unfold(self.HAND_TENSOR, mode)
        assert m.tolist() == self.HAND_UNFOLDINGS[mode]

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_fold_reproduces_hand_tensor(self, mode):
        m = np.array(self.HAND_UNFOLDINGS[mode])
        assert np.array_equal(fold(m, mode, (2, 2, 2)), self.HAND_TENSOR)

    def test_rank_one_unfolding_is_rank_one(self):
        rng = np.random.default_rng(3)
        t = tc.outer3(rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(6))
        for mode in (1, 2, 3):
            s = np.linalg.svd(tc.unfold(t, mode), compute_uv=False)
            assert s[1] < 1e-12

    def test_roundtrip_bit_exact_random_dims(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dims = tuple(rng.integers(1, 9, size=3))
            x = rng.standard_normal(dims)
            for mode in (1, 2, 3):
                assert np.array_equal(fold(tc.unfold(x, mode), mode, dims), x)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            tc.unfold(np.ones((2, 2, 2)), 0)
        with pytest.raises(ValueError):
            tc.unfold(np.ones((2, 2, 2)), 4)

    def test_fold_zero_matrix(self):
        assert np.array_equal(fold(np.zeros((3, 8)), 1, (3, 2, 4)), np.zeros((3, 2, 4)))


class TestModeProduct:
    def test_identity_is_noop(self):
        x = random_tensor((3, 4, 5))
        for mode, n in zip((1, 2, 3), x.shape):
            assert np.array_equal(tc.mode_product(x, np.eye(n), mode), x)

    def test_ones_row_vector_sums_fibers(self):
        x = random_tensor((3, 4, 5))
        ones = np.ones((1, 5))
        got = tc.mode_product(x, ones, 3)
        assert np.allclose(got, mode_product_loop(x, ones, 3), rtol=1e-13, atol=1e-13)
        assert np.allclose(got[:, :, 0], x.sum(axis=2), rtol=1e-13)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 5))
        for mode, n in zip((1, 2, 3), x.shape):
            mat = rng.standard_normal((2, n))
            got = tc.mode_product(x, mat, mode)
            assert np.allclose(got, mode_product_loop(x, mat, mode), rtol=1e-12, atol=1e-12)

    def test_distinct_mode_products_commute(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 5, 6))
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((2, 5))
        lhs = tc.mode_product(tc.mode_product(x, a, 1), b, 2)
        rhs = tc.mode_product(tc.mode_product(x, b, 2), a, 1)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(errors.ShapeError):
            tc.mode_product(np.ones((3, 4, 5)), np.ones((2, 3)), 2)

    def test_vector_matrix_rejected(self):
        with pytest.raises(errors.ShapeError):
            tc.mode_product(np.ones((3, 4, 5)), np.ones(4), 2)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_unfold_fold_product(self, mode):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 7, 8))
        mat = rng.standard_normal((5, x.shape[mode - 1]))
        dims = list(x.shape)
        dims[mode - 1] = 5
        want = fold(mat @ tc.unfold(x, mode), mode, dims)
        got = tc.mode_product(x, mat, mode)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) < 1e-13

    @pytest.mark.parametrize("view", ["transpose", "column_slice"])
    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_non_contiguous_matrix_views(self, mode, view):
        # The views contract and expand use: u.T shrinks a mode, u[:, :k]
        # grows one; neither is C-contiguous.
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 4, 5))
        n = x.shape[mode - 1]
        if view == "transpose":
            mat = rng.standard_normal((n, 2)).T
        else:
            mat = rng.standard_normal((7, n + 3))[:, :n]
        assert not mat.flags.c_contiguous
        dims = list(x.shape)
        dims[mode - 1] = mat.shape[0]
        want = fold(mat @ tc.unfold(x, mode), mode, dims)
        got = tc.mode_product(x, mat, mode)
        assert got.shape == tuple(dims)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) < 1e-13


class TestModeFactor:
    # (dims, mode, r): three wide unfoldings (6 x 56, 7 x 48, 8 x 42), a
    # square one (4 x 4) and two whose mode is longer than the other two
    # together (40 x 12), in the first and in the last mode.
    CASES = [
        ((6, 7, 8), 1, 4),
        ((6, 7, 8), 2, 4),
        ((6, 7, 8), 3, 5),
        ((4, 2, 2), 1, 3),
        ((40, 3, 4), 1, 3),
        ((3, 4, 40), 3, 3),
    ]

    @pytest.mark.parametrize("dims, mode, r", CASES)
    def test_matches_svd_of_unfolding(self, dims, mode, r):
        x = np.random.default_rng(11).standard_normal(dims)
        want = tc.svd(tc.unfold(x, mode)).u[:, :r]
        got = tc.mode_factor(x, mode, r)
        assert got.shape == (dims[mode - 1], r)
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("dims, mode, r", CASES)
    def test_sign_convention(self, dims, mode, r):
        u = tc.mode_factor(np.random.default_rng(12).standard_normal(dims), mode, r)
        for j in range(r):
            assert u[np.argmax(np.abs(u[:, j])), j] > 0

    @pytest.mark.parametrize("mode", [0, 4])
    def test_invalid_mode(self, mode):
        with pytest.raises(ValueError):
            tc.mode_factor(np.ones((3, 4, 5)), mode, 2)

    def test_rejects_a_non_tensor(self):
        with pytest.raises(errors.ShapeError):
            tc.mode_factor(np.ones((3, 4)), 1, 2)

    # (p, n, q, QRs): the unfolding's transpose has p q rows of n columns,
    # in whole slabs of q rows, and a TSQR block holds at least 1,024 rows.
    # The rows fill one block exactly; fill one block plus one row (slabs
    # of one row); or fill nine blocks, whose merges of eight R factors
    # leave two for a second merge.
    EDGES = [((32, 8, 32), 1), ((1025, 8, 1), 3), ((80, 128, 120), 12)]

    @pytest.mark.parametrize("mode", [1, 2, 3])
    @pytest.mark.parametrize("pnq, qrs", EDGES)
    def test_tsqr_block_edges(self, monkeypatch, pnq, qrs, mode):
        p, n, q = pnq
        dims = [p, q]
        dims.insert(mode - 1, n)
        x = np.random.default_rng(p + n + q).standard_normal(dims)
        calls, qr_r = [], tc._qr_r
        monkeypatch.setattr(tc, "_qr_r", lambda a: calls.append(a.shape) or qr_r(a))
        got = tc.mode_factor(x, mode, 4)
        assert len(calls) == qrs
        want = tc.svd(tc.unfold(x, mode)).u[:, :4]
        assert np.max(np.abs(got - want)) < 1e-10
        for j in range(4):
            assert got[np.argmax(np.abs(got[:, j])), j] > 0

    @pytest.mark.parametrize("mode", [1, 2, 3])
    @pytest.mark.parametrize("pnq", [pnq for pnq, _ in EDGES])
    def test_numpy_fallback_agrees_with_lapack(self, monkeypatch, pnq, mode):
        p, n, q = pnq
        dims = [p, q]
        dims.insert(mode - 1, n)
        x = np.random.default_rng(p + n + q).standard_normal(dims)
        want = tc.svd(tc.unfold(x, mode)).u[:, :4]
        lapack = None
        if getattr(tc._openblas(), "scipy_dgeqrt_64_", None) is not None:
            lapack = tc.mode_factor(x, mode, 4)
        monkeypatch.setattr(tc, "_openblas", lambda: None)
        got = tc.mode_factor(x, mode, 4)
        assert np.max(np.abs(got - want)) < 1e-10
        for j in range(4):
            assert got[np.argmax(np.abs(got[:, j])), j] > 0
        if lapack is None:
            pytest.skip("numpy's bundled OpenBLAS has no dgeqrt; the fallback alone was checked")
        assert np.max(np.abs(lapack - want)) < 1e-10
        assert np.max(np.abs(lapack - got)) < 1e-10

    # (8, 32, 32) at mode 1 is one TSQR block whose transpose is an
    # F-contiguous view of the volume itself, which dgeqrt would overwrite.
    @pytest.mark.parametrize("dims, mode", [((8, 32, 32), 1), ((32, 8, 32), 2), ((32, 32, 8), 3),
                                            ((40, 48, 56), 1), ((40, 48, 56), 2)])
    def test_leaves_its_input_unchanged(self, dims, mode):
        x = np.random.default_rng(16).standard_normal(dims)
        before = x.copy()
        tc.mode_factor(x, mode, 4)
        assert np.array_equal(x, before)

    def test_an_illegal_lapack_argument_is_a_bug_not_a_numeric_error(self, monkeypatch):
        class Library:
            @staticmethod
            def scipy_dgeqrt_64_(*args):
                args[-1]._obj.value = -4

        monkeypatch.setattr(tc, "_openblas", Library)
        with pytest.raises(RuntimeError, match="^dgeqrt rejected argument 4$") as caught:
            tc._qr_r(np.ones((40, 4)))
        assert not isinstance(caught.value, errors.VolrankError)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_peak_memory_is_a_few_blocks(self, mode):
        # A quarter of the 16.8 MB volume; one unfolding copy is all of it.
        x = np.random.default_rng(13).standard_normal((128, 128, 128))
        tracemalloc.start()
        try:
            tc.mode_factor(x, mode, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestOneBlasThread:
    """``tc._one_blas_thread`` holds numpy's OpenBLAS at one thread inside."""

    @pytest.fixture
    def threads(self):
        lib = tc._openblas()
        if lib is None:
            pytest.skip("numpy's bundled OpenBLAS was not found")
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        before = get()
        set_(2)
        yield get
        set_(before)

    def test_restores_the_count_on_exit(self, threads):
        with tc._one_blas_thread:
            assert threads() == 1
        assert threads() == 2

    def test_restores_the_count_when_the_svd_fails(self, threads, monkeypatch):
        def diverges(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(tc.np.linalg, "svd", diverges)
        with pytest.raises(errors.NumericError, match="^SVD failed to converge"):
            tc.mode_factor(np.random.default_rng(14).standard_normal((8, 40, 40)), 1, 2)
        assert threads() == 2
        assert tc._one_blas_thread._depth == 0

    def test_nested_use_keeps_one_thread_until_the_last_exit(self, threads):
        with tc._one_blas_thread:
            with tc._one_blas_thread:
                assert threads() == 1
            assert threads() == 1
        assert threads() == 2

    @pytest.mark.parametrize("library", ["missing", "without the symbols"])
    def test_without_the_library_it_does_nothing(self, monkeypatch, library):
        x = np.random.default_rng(15).standard_normal((40, 48, 56))
        want = [tc.mode_factor(x, mode, 8) for mode in (1, 2, 3)]

        def cdll(path):
            if library == "missing":
                raise OSError(f"{path}: cannot open shared object file")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        tc._openblas.cache_clear()
        try:
            assert tc._openblas() is None
            with tc._one_blas_thread:
                got = [tc.mode_factor(x, mode, 8) for mode in (1, 2, 3)]
        finally:
            tc._openblas.cache_clear()
        for u, v in zip(got, want):
            assert np.max(np.abs(u - v)) < 1e-10

    def test_two_python_threads_fit_the_one_thread_bytes(self, threads, tmp_path):
        x = volume_io.gen_synthetic("blobs_noisy", (48, 64, 80), seed=3)
        volume = tmp_path / "x.s3dv"
        volume_io.write_volume(volume, x)
        child = (
            "import sys; from volrank import decompose, read_volume, write_model; "
            "write_model(sys.argv[2], decompose(read_volume(sys.argv[1]), 16))"
        )
        subprocess.run(
            [sys.executable, "-c", child, str(volume), str(tmp_path / "m.s3dm")],
            env=_subprocess_env(OPENBLAS_NUM_THREADS="1"), check=True, timeout=120,
        )
        want = (tmp_path / "m.s3dm").read_bytes()
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(lambda: volume_io.model_to_bytes(s3dsvd.decompose(x, 16)))
                       for _ in range(6)]
            got = [f.result(timeout=120) for f in futures]
        assert got == [want] * 6
        assert threads() == 2
        assert tc._one_blas_thread._depth == 0

    def test_stress_more_python_threads_than_cores(self, threads):
        # A lost update of the depth count would restore the count while
        # a thread is still inside, or never restore it.
        def enter_and_read():
            seen = set()
            for _ in range(2000):
                with tc._one_blas_thread:
                    seen.add(threads())
            return seen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(enter_and_read) for _ in range(8)]
                seen = set().union(*(f.result(timeout=60) for f in futures))
        finally:
            sys.setswitchinterval(interval)
        assert seen == {1}
        assert threads() == 2
        assert tc._one_blas_thread._depth == 0


class TestSvd:
    def test_identity_matrix(self):
        res = tc.svd(np.eye(3))
        assert np.allclose(res.singular_values, np.ones(3), atol=1e-14)

    def test_diagonal_matrix(self):
        res = tc.svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(res.singular_values, [3.0, 2.0, 1.0], atol=1e-14)

    def test_random_matrix_contract(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((20, 30))
        res = tc.svd(m)
        recon = res.u @ np.diag(res.singular_values) @ res.vt
        assert np.linalg.norm(recon - m) / np.linalg.norm(m) < 1e-10
        p = len(res.singular_values)
        assert np.max(np.abs(res.u.T @ res.u - np.eye(p))) < 1e-10
        assert np.max(np.abs(res.vt @ res.vt.T - np.eye(p))) < 1e-10
        assert np.all(np.diff(res.singular_values) <= 0)
        assert np.all(res.singular_values >= 0)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(4)
        for shape in ((6, 9), (9, 6), (8, 8)):
            m = rng.standard_normal(shape)
            got = tc.svd(m).singular_values
            expected = jacobi_singular_values(m)
            assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(6)
        res = tc.svd(rng.standard_normal((10, 7)))
        for j in range(res.u.shape[1]):
            col = res.u[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((12, 5))
        r1 = tc.svd(m)
        r2 = tc.svd(m)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.singular_values, r2.singular_values)
        assert np.array_equal(r1.vt, r2.vt)

    def test_non_finite_input(self):
        m = np.ones((3, 3))
        m[1, 1] = np.nan
        with pytest.raises(errors.NumericError):
            tc.svd(m)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (0, 3)])
    def test_rejects_non_matrix_and_empty_shapes(self, shape):
        with pytest.raises(errors.ShapeError):
            tc.svd(np.ones(shape))

    def test_driver_failure_is_a_numeric_error(self, monkeypatch):
        # gesdd is the one driver: its failure is final, and no other
        # library is loaded to retry it.
        def diverges(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(tc.np.linalg, "svd", diverges)
        monkeypatch.delitem(sys.modules, "scipy.linalg", raising=False)
        with pytest.raises(errors.NumericError, match="^SVD failed to converge: SVD did not"):
            tc.svd(np.random.default_rng(9).standard_normal((6, 9)))
        assert "scipy.linalg" not in sys.modules


class TestValidation:
    def test_as_tensor3_rejects_wrong_rank(self):
        with pytest.raises(errors.ShapeError):
            tc.as_tensor3(np.ones((2, 2)))

    def test_as_tensor3_rejects_empty_axis(self):
        with pytest.raises(errors.ShapeError):
            tc.as_tensor3(np.ones((2, 0, 2)))

    def test_as_tensor3_casts_to_float64(self):
        x = tc.as_tensor3(np.ones((2, 2, 2), dtype=np.float32))
        assert x.dtype == np.float64
        assert x.flags["C_CONTIGUOUS"]


class TestSharedChecks:
    def test_check_level_bounds(self):
        assert tc._check_level(1, 4) == 1
        assert tc._check_level(np.int64(4), 4, "rank") == 4
        for bad in (0, 5):
            with pytest.raises(ValueError, match=rf"rank must satisfy 1 <= rank <= 4, got {bad}"):
                tc._check_level(bad, 4, "rank")

    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda x, m, path: s3dsvd.decompose(x, 3.9), "r"),
            (lambda x, m, path: s3dsvd.reconstruct(m, 2.5), "k"),
            (lambda x, m, path: metrics.per(m, "2"), "k"),
            (lambda x, m, path: volume_io.read_model(path, level=2.0), "level"),
        ],
        ids=["decompose", "reconstruct", "per", "read_model-level"],
    )
    def test_levels_must_be_integers(self, tmp_path, call, what):
        # A float is not rounded to a level, nor a string parsed as one.
        x = np.random.default_rng(5).standard_normal((4, 5, 6))
        model = s3dsvd.decompose(x, 3)
        volume_io.write_model(tmp_path / "m.s3dm", model)
        with pytest.raises(TypeError, match=rf"^{what} must be an integer, got "):
            call(x, model, tmp_path / "m.s3dm")

    def test_check_finite_reports_first_c_order_index(self):
        a = np.zeros((3, 4), order="F")
        a[2, 1] = np.inf
        a[1, 3] = np.nan
        tc._check_finite(np.zeros((2, 2)), "clean")
        with pytest.raises(errors.NumericError, match="grid contains a non-finite value at flat index 7"):
            tc._check_finite(a, "grid")

    def test_check_finite_passes_finite_values_whose_sum_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tc._check_finite(np.full((4, 5, 6), 1e308), "huge")
            tc._check_finite(np.full((4, 5, 6), -1e308), "huge")
            tc._check_finite(np.empty((0, 3)), "empty")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 59])
    def test_check_finite_names_the_first_and_last_index(self, value, index):
        a = np.ones((3, 4, 5))
        a.flat[index] = value
        with pytest.raises(errors.NumericError) as exc:
            tc._check_finite(a, "grid")
        assert str(exc.value) == f"grid contains a non-finite value at flat index {index}"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308])
    @pytest.mark.parametrize("index", [0, 59])
    def test_quiet_check_is_check_finite_inside_its_errstate(self, value, index):
        a = np.ones((3, 4, 5))
        a.flat[index] = value
        a.flat[30] = 1e308
        outcomes = []
        for check in (tc._check_finite, tc._check_finite_quiet):
            with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
                warnings.simplefilter("error")
                try:
                    check(a, "grid")
                    outcomes.append(None)
                except errors.NumericError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is None) == (value == 1e308)

    @pytest.mark.parametrize(
        "dims,k",
        [((33, 64, 64), 5), ((9, 100, 200), 3), ((3, 100, 200), 2), ((2, 3, 4), 2),
         ((1, 20, 30), 1), ((40, 48, 56), 16)],
    )
    def test_rank_one_blocks_are_the_sum_block_for_block(self, dims, k):
        rng = np.random.default_rng(37)
        factors = [rng.standard_normal((n, k)) for n in dims]
        weights = rng.random(k) + 0.5
        whole = tc._rank_one_sum(weights, *factors)
        blocks = list(tc._product_blocks(*tc._rank_one_operands(weights, *factors)))
        want = list(tc._slabs(whole.ravel(), tc._BLOCK))
        assert [b.size for b in blocks] == [b.size for b in want]
        assert all(np.array_equal(b, w) for b, w in zip(blocks, want))

    # rows x inner @ inner x cols: last slab two rows (10 of 8192), a one-row
    # tail folded into the slab before it (9 of 8192, 5 of 40000), ragged
    # slabs whose blocks straddle them (21 of 5000, 600 of 128), slabs cut
    # to 5 whole blocks (600 of 160), inner 1, and a single row.
    PRODUCT_CASES = [(10, 3, 8192), (9, 2, 8192), (5, 3, 40000), (21, 4, 5000), (600, 5, 128),
                     (600, 48, 160), (7, 1, 3000), (1, 3, 100)]

    @pytest.mark.parametrize("rows,inner,cols", PRODUCT_CASES)
    def test_product_blocks_are_the_product_block_for_block(self, rows, inner, cols):
        rng = np.random.default_rng(38)
        a, b = rng.standard_normal((rows, inner)), rng.standard_normal((cols, inner)).T
        blocks = list(tc._product_blocks(a, b))
        want = list(tc._slabs((a @ b).ravel(), tc._BLOCK))
        assert [b.size for b in blocks] == [b.size for b in want]
        assert all(np.array_equal(b, w) for b, w in zip(blocks, want))

    def test_product_blocks_join_no_slabs_of_whole_blocks(self, monkeypatch):
        # An s3dsvd level at 96x128x160 has rows of 160 entries: slabs of
        # 256 rows hold 5 blocks each, so no block spans two slabs.
        rng = np.random.default_rng(38)
        a, b = rng.standard_normal((12288, 48)), rng.standard_normal((48, 160))
        joins, concatenate = [], np.concatenate
        monkeypatch.setattr(tc.np, "concatenate", lambda *args: joins.append(1) or concatenate(*args))
        blocks = list(tc._product_blocks(a, b))
        assert joins == [] and len(blocks) == 12288 * 160 // tc._BLOCK

    @pytest.mark.parametrize("rows,inner,cols", PRODUCT_CASES)
    def test_product_residual_is_the_residual_of_the_product(self, rows, inner, cols):
        rng = np.random.default_rng(39)
        a, b = rng.standard_normal((rows, inner)), rng.standard_normal((cols, inner)).T
        x = rng.standard_normal((rows, cols))
        want = tc._residual(x, tc._blocks(a @ b), True)
        assert tc._residual(x, tc._product_blocks(a, b), True) == want

    def test_check_finite_builds_no_array_sized_temporary(self):
        a = np.ones(2_000_000)
        tracemalloc.start()
        try:
            tc._check_finite(a, "big")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * a.nbytes

    @pytest.mark.parametrize(
        "dims, k",
        [((4, 5, 6), 3), ((4, 5, 6), 4), ((5, 40, 7), 1), ((5, 40, 7), 5),
         ((33, 2, 50), 1), ((33, 2, 50), 2)],
    )
    @pytest.mark.parametrize("weighting", ["normal", "alternating signs", "zero"])
    def test_rank_one_sum_matches_outer3_loop(self, dims, k, weighting):
        weights = {
            "normal": RNG.standard_normal(k),
            "alternating signs": np.abs(RNG.standard_normal(k)) * (-1.0) ** np.arange(k),
            "zero": np.zeros(k),
        }[weighting]
        u1, u2, u3 = (RNG.standard_normal((n, k)) for n in dims)
        want = sum(
            weights[r] * outer3_loop(u1[:, r], u2[:, r], u3[:, r]) for r in range(k)
        )
        # Bound on any entry's terms, so 1e-12 is relative to the sum's scale;
        # zero weights must give exact zeros.
        scale = np.abs(weights) @ np.prod([np.abs(u).max(axis=0) for u in (u1, u2, u3)], axis=0)
        got = tc._rank_one_sum(weights, u1, u2, u3)
        assert got.shape == dims
        assert np.allclose(got, want, rtol=0, atol=1e-12 * scale)
