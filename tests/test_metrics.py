import dataclasses
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from volrank import cli, errors, metrics, s3dsvd, tensor_core, volume_io

from oracles import mse_loop
from test_cli import _subprocess_env


def model_with_qsigma(values):
    values = np.asarray(values, dtype=np.float64)
    r = len(values)
    core = np.zeros((r, r, r))
    idx = np.arange(r)
    core[idx, idx, idx] = values
    eye = np.eye(r)
    return s3dsvd.S3dModel(
        dims=(r, r, r), rank=r, factors=(eye, eye, eye), core=core
    )


class TestMse:
    def test_identical_is_zero(self):
        x = np.ones((3, 4, 5))
        assert metrics.mse(x, x.copy()) == 0.0

    def test_ones_vs_zeros(self):
        assert metrics.mse(np.ones((2, 2, 2)), np.zeros((2, 2, 2))) == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 4, 5))
        xhat = rng.standard_normal((3, 4, 5))
        assert metrics.mse(x, xhat) == pytest.approx(mse_loop(x, xhat), rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeError):
            metrics.mse(np.ones((2, 2, 2)), np.ones((2, 2, 3)))


class TestPsnr:
    def test_identical_is_infinite(self):
        x = np.ones((2, 3, 4))
        assert metrics.psnr(x, x.copy()) == math.inf

    def test_closed_form_30db(self):
        x = np.ones((10, 10, 10))
        xhat = x - math.sqrt(1e-3)
        assert metrics.psnr(x, xhat) == pytest.approx(30.0, abs=1e-9)

    def test_table_value_consistency(self):
        x = np.ones((10, 10, 10))
        xhat = x - math.sqrt(1.096e-3)
        assert metrics.psnr(x, xhat) == pytest.approx(29.60, abs=0.01)

    def test_peak_from_original_volume(self):
        x = np.full((2, 2, 2), 2.0)
        xhat = np.full((2, 2, 2), 1.0)
        # peak is max(x) = 2 regardless of xhat values
        assert metrics.psnr(x, xhat) == pytest.approx(10 * math.log10(4.0 / 1.0))

    def test_non_positive_peak_is_degenerate(self):
        x = np.zeros((2, 2, 2))
        with pytest.raises(errors.DegenerateInputError):
            metrics.psnr(x, np.ones((2, 2, 2)))
        with pytest.raises(errors.DegenerateInputError):
            metrics.psnr(-np.ones((2, 2, 2)), np.zeros((2, 2, 2)))

    def test_overflowed_mse_is_a_numeric_error(self):
        # A finite reconstruction whose squared error overflows float64, and
        # reconstructions that overflowed to inf or NaN on the way.
        x = np.ones((2, 2, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            for value in (1e200, math.inf, math.nan):
                with pytest.raises(errors.NumericError, match="psnr is undefined"):
                    metrics.psnr(x, np.full((2, 2, 2), value))

    def test_overflowed_peak_is_a_numeric_error_not_exact(self):
        # peak**2 overflows: the ratio would be inf, which reads as exact.
        x = np.ones((2, 2, 2))
        x[0, 0, 0] = 1e200
        xhat = x.copy()
        xhat[1, 1, 1] = 0.5
        with np.errstate(over="ignore"):
            with pytest.raises(errors.NumericError, match="psnr is undefined"):
                metrics.psnr(x, xhat)

    def test_huge_volume_has_the_psnr_of_its_unscaled_copy(self):
        # Above about 1e154 the squared residual and peak**2 overflow
        # float64, but their ratio does not.
        rng = np.random.default_rng(7)
        y = rng.random((8, 8, 8))
        yhat = s3dsvd.reconstruct(s3dsvd.decompose(y, 2), 2)
        c = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = metrics.psnr(c * y, c * yhat)
        assert math.isfinite(got)
        assert abs(got - metrics.psnr(y, yhat)) < 1e-9
        assert metrics.mse(c * y, c * yhat) == math.inf

    def test_strictly_decreasing_in_mse(self):
        x = np.ones((4, 4, 4))
        values = [metrics.psnr(x, x - delta) for delta in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestRelErr:
    def test_identical_is_zero(self):
        x = np.ones((3, 3, 3))
        assert metrics.rel_err(x, x.copy()) == 0.0

    def test_zero_reconstruction_is_one(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4, 5))
        assert metrics.rel_err(x, np.zeros_like(x)) == pytest.approx(1.0, rel=1e-14)

    def test_relation_to_mse(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 5, 6))
        xhat = rng.standard_normal((4, 5, 6))
        n = x.size
        lhs = metrics.rel_err(x, xhat) ** 2 * np.sum(x * x)
        rhs = metrics.mse(x, xhat) * n
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_huge_volume_is_finite(self):
        x = np.full((8, 8, 8), 1e200)
        xhat = s3dsvd.reconstruct(s3dsvd.decompose(x, 1), 1)
        with np.errstate(over="ignore"):
            err = metrics.rel_err(x, xhat)
        assert np.isfinite(err) and err < 1e-12

    def test_zero_reference_is_degenerate(self):
        with pytest.raises(errors.DegenerateInputError):
            metrics.rel_err(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))


class TestPer:
    def test_full_rank_is_exactly_one(self):
        model = model_with_qsigma([3.0, -2.0, 0.5, 0.1])
        assert metrics.per(model, 4) == 1.0

    def test_closed_form(self):
        model = model_with_qsigma([2.0, 1.0])
        assert metrics.per(model, 1) == pytest.approx(0.8, rel=1e-15)

    def test_signs_do_not_matter(self):
        assert metrics.per(model_with_qsigma([-2.0, 1.0]), 1) == pytest.approx(
            metrics.per(model_with_qsigma([2.0, 1.0]), 1), rel=1e-15
        )

    def test_rank_one_input_saturates_immediately(self):
        from volrank import tensor_core as tc

        rng = np.random.default_rng(4)
        x = tc.outer3(*(rng.standard_normal(n) for n in (5, 6, 7)))
        model = s3dsvd.decompose(x, 3)
        assert metrics.per(model, 1) > 1 - 1e-10

    def test_non_decreasing_in_k(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 9, 10))
        model = s3dsvd.decompose(x, 8)
        values = [metrics.per(model, k) for k in range(1, 9)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert abs(values[-1] - 1.0) < 1e-12

    def test_k_out_of_range(self):
        model = model_with_qsigma([1.0, 2.0])
        for bad in (0, 3):
            with pytest.raises(ValueError):
                metrics.per(model, bad)

    def test_all_zero_coefficients_degenerate(self):
        model = model_with_qsigma([0.0, 0.0])
        with pytest.raises(errors.DegenerateInputError):
            metrics.per(model, 1)


class TestSelectRankByPer:
    def test_threshold_one_gives_full_rank(self):
        model = model_with_qsigma([3.0, 2.0, 1.0])
        assert metrics.select_rank_by_per(model, 1.0) == 3

    def test_tie_at_threshold_picks_smaller_k(self):
        model = model_with_qsigma([3.0, 1.0, 0.0])
        assert metrics.select_rank_by_per(model, 0.9) == 1

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 9, 10))
        model = s3dsvd.decompose(x, 8)
        picks = [
            metrics.select_rank_by_per(model, t)
            for t in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0)
        ]
        assert all(b >= a for a, b in zip(picks, picks[1:]))

    def test_invalid_threshold(self):
        model = model_with_qsigma([1.0])
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                metrics.select_rank_by_per(model, bad)


class TestScore:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_single_metrics_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.1, 1.0, size=(5, 6, 7))
        xhat = x + rng.normal(scale=0.05, size=x.shape)
        row = metrics.score(x, xhat, "s3dsvd", 3, per=0.5, time_s=1.0)
        assert row["psnr_db"] == metrics.psnr(x, xhat)
        assert row["mse"] == metrics.mse(x, xhat)
        assert row["rel_err"] == metrics.rel_err(x, xhat)
        assert (row["method"], row["k"], row["per"]) == ("s3dsvd", 3, 0.5)
        assert row["time_s"] == 1.0

    def test_row_keys_are_the_metrics_csv_header(self):
        x = np.ones((2, 3, 4))
        row = metrics.score(x, 0.5 * x, "recon", 0)
        assert list(row) == cli._csv_columns(False, True)
        assert (row["per"], row["time_s"]) == (None, None)

    def test_exact_reconstruction_is_infinite(self):
        x = np.ones((2, 3, 4))
        row = metrics.score(x, x.copy(), "recon", 0)
        assert row["psnr_db"] == math.inf
        assert row["mse"] == 0.0

    def test_huge_volume_matches_the_single_metrics(self):
        rng = np.random.default_rng(8)
        x = rng.random((8, 8, 8)) * 1e160
        xhat = s3dsvd.reconstruct(s3dsvd.decompose(x, 2), 2)
        row = metrics.score(x, xhat, "s3dsvd", 2)
        assert math.isfinite(row["psnr_db"])
        assert row["psnr_db"] == metrics.psnr(x, xhat)
        assert row["mse"] == metrics.mse(x, xhat) == math.inf
        assert row["rel_err"] == metrics.rel_err(x, xhat)

    def test_raises_what_psnr_raises(self):
        with pytest.raises(errors.DegenerateInputError):
            metrics.score(np.zeros((2, 2, 2)), np.ones((2, 2, 2)), "recon", 0)
        with pytest.raises(errors.DegenerateInputError):
            metrics.score(-np.ones((2, 2, 2)), np.zeros((2, 2, 2)), "recon", 0)
        x = np.ones((2, 2, 2))
        with np.errstate(over="ignore"):
            with pytest.raises(errors.NumericError, match="psnr is undefined"):
                metrics.score(x, np.full((2, 2, 2), 1e200), "recon", 0)


class TestBlockedResidual:
    # Sums over a volume add blocks of tensor_core._BLOCK entries; the sizes
    # straddle one, two and several blocks.
    BLOCK = tensor_core._BLOCK
    SHAPES = [(1, 1, 1), (1, 1, BLOCK - 1), (1, 1, BLOCK), (1, 1, BLOCK + 1),
              (1, 1, 3 * BLOCK + 5), (128, 128, 128)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_mse_matches_an_exact_sum(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        xhat = x + rng.normal(scale=1e-3, size=shape)
        exact = math.fsum(((x - xhat) ** 2).ravel().tolist()) / x.size
        assert metrics.mse(x, xhat) == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_inner_product_matches_an_exact_sum(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        a = rng.random(shape)
        b = rng.random(shape)
        exact = math.fsum((a * b).ravel().tolist())
        assert tensor_core.inner_product(a, b) == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 3 * BLOCK + 5), (40, 50, 60)])
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_rel_err_divides_by_frobenius_norm(self, shape, scale):
        # At 1e200 the pass's ||x||**2 overflows and frobenius_norm rescales.
        rng = np.random.default_rng(sum(shape))
        x = scale * rng.random(shape)
        xhat = x + scale * rng.normal(scale=1e-3, size=shape)
        sq = tensor_core._residual(x, tensor_core._blocks(xhat))[0]
        want = metrics._norm(x, xhat, sq) / tensor_core.frobenius_norm(x)
        assert metrics.rel_err(x, xhat) == want
        assert metrics.score(x, xhat, "recon", 0)["rel_err"] == want

    @pytest.mark.parametrize("name", ["mse", "psnr", "rel_err", "score"])
    def test_no_volume_sized_array_is_formed(self, name):
        # One residual of a 128^3 float64 pair is 16.8 MB.
        rng = np.random.default_rng(5)
        x = rng.random((128, 128, 128))
        xhat = x + rng.normal(scale=1e-2, size=x.shape)
        args = (x, xhat, "recon", 0) if name == "score" else (x, xhat)
        tracemalloc.start()
        try:
            getattr(metrics, name)(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_inputs_are_not_modified(self):
        rng = np.random.default_rng(6)
        x = rng.random((8, 40, 60))
        xhat = x + rng.normal(scale=1e-2, size=x.shape)
        x0, xhat0 = x.copy(), xhat.copy()
        metrics.score(x, xhat, "recon", 0)
        for f in (metrics.mse, metrics.psnr, metrics.rel_err):
            f(x, xhat)
        assert np.array_equal(x, x0) and np.array_equal(xhat, xhat0)

    def test_bits_do_not_depend_on_blas_threads(self):
        # A single np.dot over a whole volume is split across threads
        # above 10,000 entries, which changes the last bits of its sum.
        code = (
            "import numpy as np; from volrank import metrics, tensor_core as tc; "
            "rng = np.random.default_rng(0); x = rng.random((96, 128, 160)); "
            "xhat = x + 1e-3 * rng.standard_normal(x.shape); "
            "print(metrics.mse(x, xhat).hex(), metrics.psnr(x, xhat).hex(), "
            "tc.inner_product(x, xhat).hex(), tc.frobenius_norm(x).hex(), "
            "metrics.rel_err(x, xhat).hex(), "
            "metrics.score(x, xhat, 'recon', 0)['rel_err'].hex())"
        )
        outs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env=_subprocess_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=120, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert outs[0] == outs[1]


# A volume, its level-4 reconstruction and its rank-6 model, to be scaled by
# 2**e.  Scaling by a power of two is exact while values stay normal, so
# every output should scale with it: a norm by 2**e, an mse by 4**e and
# PSNR, relative error and PER not at all.
SCALED = volume_io.gen_synthetic("blobs_noisy", (20, 24, 28), seed=3)
SCALED_MODEL = s3dsvd.decompose(SCALED, 6)
SCALED_XHAT = s3dsvd.reconstruct(SCALED_MODEL, 4)
_MAGNITUDES = np.abs(np.concatenate(
    [a.ravel() for a in (SCALED, SCALED_XHAT, SCALED - SCALED_XHAT, SCALED_MODEL.qsigma)]
))
_SMALLEST = float(_MAGNITUDES[_MAGNITUDES > 0].min())
# The range of e over which every nonzero value above stays a normal double.
E_MIN = math.ceil(math.log2(sys.float_info.min / _SMALLEST))
E_MAX = math.floor(math.log2(sys.float_info.max / _MAGNITUDES.max()))
# Every square and mean the metrics form lies between these two, so where
# both stay normal no sum loses a digit and no rescaling branch is taken.
_LEAST_SQUARE = min(_SMALLEST**2, metrics.mse(SCALED, SCALED_XHAT))
_LARGEST_SUM = SCALED.size * float(_MAGNITUDES.max()) ** 2


def _scaled(e):
    s = 2.0**e
    model = dataclasses.replace(SCALED_MODEL, core=SCALED_MODEL.core * s)
    return SCALED * s, SCALED_XHAT * s, model


def _outputs(x, xhat, model):
    """``(name, value, power)`` of each output that scales as ``2**(e * power)``."""
    yield "frobenius_norm", tensor_core.frobenius_norm(x), 1
    yield "mse", metrics.mse(x, xhat), 2
    yield "psnr", metrics.psnr(x, xhat), 0
    yield "rel_err", metrics.rel_err(x, xhat), 0
    row = metrics.score(x, xhat, "s3dsvd", 4)
    yield "score mse", row["mse"], 2
    yield "score psnr_db", row["psnr_db"], 0
    yield "score rel_err", row["rel_err"], 0
    for k in range(1, model.rank + 1):
        yield f"per k={k}", metrics.per(model, k), 0
    yield "select_rank_by_per", metrics.select_rank_by_per(model, 0.99), 0


_UNSCALED = list(_outputs(*_scaled(0)))


class TestScaling:
    @settings(database=None, derandomize=True, deadline=None, max_examples=200)
    @example(-600)
    @example(-530)
    @example(600)
    @given(st.integers(E_MIN, E_MAX))
    def test_every_output_scales_with_the_volume(self, e):
        # Bit for bit where every square stays normal; elsewhere a sum was
        # rescaled by the largest magnitude, which costs a few roundings.
        # An mse is the sum over the size, so it is inf where that sum
        # overflows, as documented, and keeps only its absolute digits below
        # the least normal double.
        s = 2.0**e
        exact = all(tensor_core._normal(v * s * s) for v in (_LEAST_SQUARE, _LARGEST_SUM))
        for (name, want, power), (_, got, _) in zip(_UNSCALED, _outputs(*_scaled(e))):
            for _ in range(power):
                want *= s
            if exact or want == math.inf:
                assert got == want, name
            elif power == 2 and want > sys.float_info.max / SCALED.size:
                assert got == math.inf, name
            elif power == 2 and want < sys.float_info.min:
                assert abs(got - want) < sys.float_info.min, name
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), name

    def test_underflowed_fit_keeps_the_metrics_of_the_unscaled_fit(self):
        # At 2**-600 every square underflows to 0.0: frobenius_norm once read
        # 0.0, psnr inf ("exact"), and rel_err and per raised
        # DegenerateInputError, for a volume that is not zero.
        s = 2.0**-600
        x = SCALED * s
        model = s3dsvd.decompose(x, 6)
        xhat = s3dsvd.reconstruct(model, 4)
        assert tensor_core.frobenius_norm(x) == pytest.approx(
            tensor_core.frobenius_norm(SCALED) * s, rel=1e-12, abs=0.0
        )
        assert metrics.psnr(x, xhat) == pytest.approx(
            metrics.psnr(SCALED, SCALED_XHAT), rel=1e-12, abs=0.0
        )
        assert metrics.rel_err(x, xhat) == pytest.approx(
            metrics.rel_err(SCALED, SCALED_XHAT), rel=1e-12, abs=0.0
        )
        assert [metrics.per(model, k) for k in range(1, 7)] == pytest.approx(
            [metrics.per(SCALED_MODEL, k) for k in range(1, 7)], rel=1e-12, abs=0.0
        )
        # A level scored from slabs of its expansion forms it to rescale.
        for k in (4, 6):
            got = s3dsvd._score(x, model.core, model.factors, k, "s3dsvd")
            want = metrics.score(SCALED, s3dsvd.reconstruct(SCALED_MODEL, k), "s3dsvd", k)
            for key in ("psnr_db", "rel_err"):
                assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key
