import math
import warnings

import numpy as np
import pytest

from volrank import cli, errors, metrics, s3dsvd

from oracles import mse_loop


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
