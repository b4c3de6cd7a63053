import math

import numpy as np
import pytest

import volrank
from volrank import baselines, errors, metrics, s3dsvd, tensor_core as tc

from oracles import cpd_expand_loop, tucker_expand_loop
from test_s3dsvd import exact_multirank


def unit_vectors(dims, seed):
    rng = np.random.default_rng(seed)
    vecs = [rng.standard_normal(n) for n in dims]
    return [v / np.linalg.norm(v) for v in vecs]


def rank_one_target(dims=(10, 12, 14), weight=3.0, seed=0):
    u, v, w = unit_vectors(dims, seed)
    return weight * tc.outer3(u, v, w), weight


class TestTuckerDecompose:
    def test_exact_rank_recovery_in_two_sweeps(self):
        x, _, _ = exact_multirank((10, 12, 14), rho=3, seed=1)
        model = baselines.tucker_decompose(x, 3)
        xhat = baselines.tucker_reconstruct(model)
        assert metrics.rel_err(x, xhat) < 1e-10
        assert len(model.fit_history) - 1 <= 2

    def test_full_rank_cube_is_exact(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 6, 6))
        model = baselines.tucker_decompose(x, 6)
        assert metrics.rel_err(x, baselines.tucker_reconstruct(model)) < 1e-10

    def test_fit_history_non_increasing(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 11, 12))
        model = baselines.tucker_decompose(x, 4)
        history = model.fit_history
        assert len(history) >= 2
        for prev, curr in zip(history, history[1:]):
            assert curr <= prev + 1e-12

    def test_factor_orthonormality(self):
        rng = np.random.default_rng(4)
        model = baselines.tucker_decompose(rng.standard_normal((8, 9, 10)), 5)
        for u in model.factors:
            assert np.max(np.abs(u.T @ u - np.eye(5))) < 1e-10

    def test_never_worse_than_s3dsvd_truncation(self):
        rng = np.random.default_rng(5)
        for trial in range(3):
            x = rng.standard_normal((9, 10, 11))
            for k in (2, 4, 6):
                hooi = metrics.rel_err(
                    x, baselines.tucker_reconstruct(baselines.tucker_decompose(x, k))
                )
                hosvd = metrics.rel_err(
                    x, s3dsvd.reconstruct(s3dsvd.decompose(x, k), k)
                )
                assert hooi <= hosvd + 1e-10

    def test_zero_sweeps_is_the_s3dsvd_model(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((7, 8, 9))
        model = baselines.tucker_decompose(x, 3, max_iters=0)
        hosvd = s3dsvd.decompose(x, 3)
        assert len(model.fit_history) == 1
        assert np.array_equal(model.core, hosvd.core)
        for u, v in zip(model.factors, hosvd.factors):
            assert np.array_equal(u, v)

    def test_shared_contraction_sweep_matches_per_mode_sweep(self):
        # Reference HOOI sweep: every mode update contracts the full volume
        # with the other two factors, and the core is a fresh contraction.
        x = np.random.default_rng(10).standard_normal((9, 10, 11))
        k = 4
        factors = list(s3dsvd.decompose(x, k).factors)
        for mode in (1, 2, 3):
            y = x
            for other in (1, 2, 3):
                if other != mode:
                    y = tc.mode_product(y, factors[other - 1].T, other)
            factors[mode - 1] = tc.svd(tc.unfold(y, mode)).u[:, :k]
        core = x
        for mode, u in enumerate(factors, start=1):
            core = tc.mode_product(core, u.T, mode)
        model = baselines.tucker_decompose(x, k, max_iters=1)
        assert len(model.fit_history) == 2
        for got, want in zip(model.factors, factors):
            assert np.max(np.abs(got - want)) < 1e-10
        assert np.max(np.abs(model.core - core)) < 1e-10

    def test_deterministic(self):
        x = np.random.default_rng(11).standard_normal((9, 10, 11))
        m1 = baselines.tucker_decompose(x, 4)
        m2 = baselines.tucker_decompose(x, 4)
        assert np.array_equal(m1.core, m2.core)
        assert m1.fit_history == m2.fit_history
        for u1, u2 in zip(m1.factors, m2.factors):
            assert np.array_equal(u1, u2)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            baselines.tucker_decompose(np.ones((4, 5, 6)), 5)

    def test_overflowing_volume_raises_numeric_error(self):
        with pytest.raises(errors.NumericError):
            baselines.tucker_decompose(np.full((8, 8, 8), 1e308), 2)

    def test_huge_volume_stops_with_a_finite_history(self):
        # Its sum of squares overflows, but the rescaled norm keeps every
        # relative error finite, so HOOI sees no gain and stops.
        with np.errstate(over="ignore"):
            model = baselines.tucker_decompose(np.full((8, 8, 8), 1e306), 2)
        assert len(model.fit_history) == 2
        assert all(math.isfinite(e) and e < 1e-12 for e in model.fit_history)

    def test_non_finite_input(self):
        x = np.ones((3, 3, 3))
        x[2, 2, 2] = np.nan
        with pytest.raises(errors.NumericError):
            baselines.tucker_decompose(x, 2)

    def test_zero_volume_has_zero_error(self):
        assert baselines.tucker_decompose(np.zeros((4, 5, 6)), 2).fit_history == (0.0, 0.0)


def test_no_fit_builds_an_unfolding(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a fit called unfold or fold")

    for module in (volrank, tc, s3dsvd, baselines):
        for name in ("unfold", "fold"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    x = np.random.default_rng(28).random((6, 7, 8))
    s3dsvd.decompose(x, 3)
    baselines.tucker_decompose(x, 3)
    baselines.cpd_decompose(x, 3, seed=0, max_iters=5)


class TestTuckerReconstruct:
    def test_zero_core_gives_zero(self):
        rng = np.random.default_rng(6)
        model = baselines.tucker_decompose(rng.standard_normal((5, 6, 7)), 3)
        zeroed = baselines.TuckerModel(
            dims=model.dims,
            rank=model.rank,
            factors=model.factors,
            core=np.zeros_like(model.core),
            fit_history=model.fit_history,
        )
        assert np.array_equal(
            baselines.tucker_reconstruct(zeroed), np.zeros(model.dims)
        )

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        model = baselines.tucker_decompose(rng.standard_normal((4, 4, 4)), 2)
        expected = tucker_expand_loop(model.core, *model.factors)
        assert np.allclose(
            baselines.tucker_reconstruct(model), expected, rtol=1e-12, atol=1e-12
        )

    def test_truncated_reconstruction_matches_manual_slice(self):
        rng = np.random.default_rng(8)
        model = baselines.tucker_decompose(rng.standard_normal((6, 7, 8)), 4)
        got = baselines.tucker_reconstruct(model, 2)
        manual = tucker_expand_loop(
            model.core[:2, :2, :2], *(u[:, :2] for u in model.factors)
        )
        assert np.allclose(got, manual, rtol=1e-12, atol=1e-12)


class TestCpdDecompose:
    def test_rank_one_recovery(self):
        x, weight = rank_one_target(seed=9)
        for seed in (0, 1, 2):
            model = baselines.cpd_decompose(x, 1, seed=seed)
            assert abs(model.weights[0] - weight) / weight < 1e-6
            assert metrics.rel_err(x, baselines.cpd_reconstruct(model)) < 1e-8

    def test_two_seeds_same_objective(self):
        x, _ = rank_one_target(seed=10)
        errs = [
            metrics.rel_err(x, baselines.cpd_reconstruct(baselines.cpd_decompose(x, 1, seed=s)))
            for s in (3, 4)
        ]
        assert abs(errs[0] - errs[1]) < 1e-8

    def test_three_separated_terms(self):
        # ALS regularly stalls in a local optimum that drops one of the
        # three terms (the reason the multi-seed study exists), so the
        # guarantees checked here are: enough seeds recover the target
        # exactly, and no seed does worse than a two-term fit.
        rng = np.random.default_rng(1)
        dims = (12, 12, 12)
        qs = [np.linalg.qr(rng.standard_normal((n, 3)))[0] for n in dims]
        x = np.zeros(dims)
        for term, weight in enumerate((2.0, 1.5, 1.0)):
            x = x + weight * tc.outer3(qs[0][:, term], qs[1][:, term],
                                       qs[2][:, term])
        errs = []
        for seed in range(10):
            model = baselines.cpd_decompose(x, 3, seed=seed)
            errs.append(metrics.rel_err(x, baselines.cpd_reconstruct(model)))
        assert min(errs) < 1e-8
        assert sum(e < 1e-8 for e in errs) >= 4
        assert max(errs) < 0.6

    def test_unit_norm_columns_and_nonnegative_weights(self):
        rng = np.random.default_rng(12)
        x = rng.random((6, 7, 8))
        model = baselines.cpd_decompose(x, 3, seed=0)
        for f in model.factors:
            assert np.max(np.abs(np.linalg.norm(f, axis=0) - 1.0)) < 1e-10
        assert np.all(model.weights >= 0)

    def test_same_seed_bit_deterministic(self):
        rng = np.random.default_rng(13)
        x = rng.random((5, 6, 7))
        m1 = baselines.cpd_decompose(x, 2, seed=42)
        m2 = baselines.cpd_decompose(x, 2, seed=42)
        assert np.array_equal(m1.weights, m2.weights)
        for f1, f2 in zip(m1.factors, m2.factors):
            assert np.array_equal(f1, f2)
        assert m1.iterations_run == m2.iterations_run
        assert m1.converged == m2.converged

    def test_objective_invariant_under_permutation_and_scale(self):
        rng = np.random.default_rng(14)
        x = rng.random((6, 6, 6))
        model = baselines.cpd_decompose(x, 3, seed=1)
        base = metrics.rel_err(x, baselines.cpd_reconstruct(model))
        perm = [2, 0, 1]
        a, b, c = (f[:, perm].copy() for f in model.factors)
        weights = model.weights[perm].copy()
        # compensated sign and scale changes on one column
        a[:, 0] = -2.0 * a[:, 0]
        b[:, 0] = -b[:, 0]
        weights[0] = weights[0] / 2.0
        shuffled = baselines.CpModel(
            dims=model.dims,
            rank=model.rank,
            factors=(a, b, c),
            weights=weights,
            seed=model.seed,
            iterations_run=model.iterations_run,
            converged=model.converged,
            ridge_applied=model.ridge_applied,
        )
        assert metrics.rel_err(x, baselines.cpd_reconstruct(shuffled)) == pytest.approx(
            base, rel=1e-12, abs=1e-12
        )

    def test_contracted_mttkrp_sweep_matches_unfolding_sweep(self):
        # Reference ALS sweep: each MTTKRP is the mode's unfolding times the
        # Khatri-Rao product of the other two factors, lower mode fastest.
        x = np.random.default_rng(27).random((6, 7, 8))
        k, seed = 3, 5
        rng = np.random.default_rng(seed)
        factors = [rng.random((n, k)) for n in x.shape]
        for mode in range(3):
            lo, hi = [factors[m] for m in range(3) if m != mode]
            khatri_rao = (hi[:, None, :] * lo[None, :, :]).reshape(-1, k)
            gram = (hi.T @ hi) * (lo.T @ lo)
            rhs = tc.unfold(x, mode + 1) @ khatri_rao
            factors[mode] = np.linalg.solve(gram, rhs.T).T
        norms = [np.linalg.norm(f, axis=0) for f in factors]
        model = baselines.cpd_decompose(x, k, seed, max_iters=1)
        assert model.iterations_run == 1
        assert not model.ridge_applied
        assert np.max(np.abs(model.weights - norms[0] * norms[1] * norms[2])) < 1e-10
        for got, f, n in zip(model.factors, factors, norms):
            assert np.max(np.abs(got - f / n)) < 1e-10

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            baselines.cpd_decompose(np.ones((3, 4, 5)), 4, seed=0)

    def test_ridge_fallback_on_zero_volume(self):
        # The first mode's update is zero, so the next normal equations are
        # exactly singular and only the ridge lets the fit go on.
        model = baselines.cpd_decompose(np.zeros((4, 5, 6)), 2, 0)
        assert model.ridge_applied
        assert model.converged
        assert np.array_equal(model.weights, np.zeros(2))
        for f in model.factors:
            assert np.all(np.isfinite(f))

    def test_overflowing_normal_equations_raise_numeric_error(self):
        # A finite volume whose normal equations overflow float64 must not
        # "converge" to NaN factors.
        x = np.random.default_rng(24).random((5, 6, 7)) * 1e160
        with np.errstate(all="ignore"), pytest.raises(
            errors.NumericError, match="ALS mode-2 Gram matrix"
        ):
            baselines.cpd_decompose(x, 2, 0)


class TestFitError:
    def _direct(self, x, weights, factors):
        xhat = tc._rank_one_sum(weights, *factors)
        return tc.frobenius_norm(x - xhat) / tc.frobenius_norm(x), xhat

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_residual(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((6, 7, 8))
        random_model = (rng.random(3), [rng.standard_normal((n, 3)) for n in x.shape])
        fitted = baselines.cpd_decompose(x, 3, seed=seed, max_iters=20)
        for weights, factors in (random_model, (fitted.weights, fitted.factors)):
            want, xhat = self._direct(x, weights, factors)
            got = baselines._fit_error(
                tc.frobenius_norm(x), tc.inner_product(x, xhat), weights, factors
            )
            assert got == pytest.approx(want, rel=1e-10)

    def test_sweep_passes_the_fit_inner_product(self, monkeypatch):
        # The sweep takes <x, xhat> from its last MTTKRP; pin it, and the
        # stopping error it gives, to the directly computed values.
        x = np.random.default_rng(26).random((6, 7, 8))
        fit_error, seen = baselines._fit_error, []

        def checked(normx, inner, weights, factors):
            err = fit_error(normx, inner, weights, factors)
            want, xhat = self._direct(x, weights, factors)
            seen.append((inner, tc.inner_product(x, xhat), err, want))
            return err

        monkeypatch.setattr(baselines, "_fit_error", checked)
        baselines.cpd_decompose(x, 3, seed=0, max_iters=10, tol=0.0)
        assert len(seen) == 10
        for inner, want_inner, err, want in seen:
            assert inner == pytest.approx(want_inner, rel=1e-10)
            assert err == pytest.approx(want, rel=1e-10)

    def test_exact_fit_is_zero_not_nan(self):
        rng = np.random.default_rng(25)
        factors = [rng.standard_normal((n, 3)) for n in (4, 5, 6)]
        weights = rng.random(3) + 0.5
        x = tc._rank_one_sum(weights, *factors)
        normx, inner = tc.frobenius_norm(x), tc.inner_product(x, x)
        assert baselines._fit_error(normx, inner, weights, factors) < 1e-7
        # An inner product a rounding error too large cancels below zero.
        assert baselines._fit_error(normx, inner * (1 + 1e-12), weights, factors) == 0.0


class TestCpdReconstruct:
    def test_single_term_peak(self):
        u = np.array([0.6, 0.8])
        v = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        model = baselines.CpModel(
            dims=(2, 2, 2),
            rank=1,
            factors=(u[:, None], v[:, None], w[:, None]),
            weights=np.array([7.0]),
            seed=0,
            iterations_run=0,
            converged=True,
            ridge_applied=False,
        )
        xhat = baselines.cpd_reconstruct(model)
        assert xhat.max() == pytest.approx(7.0 * 0.8 * 1.0 * 1.0, rel=1e-14)

    def test_zero_weights_give_zero(self):
        rng = np.random.default_rng(15)
        model = baselines.CpModel(
            dims=(3, 4, 5),
            rank=2,
            factors=tuple(rng.standard_normal((n, 2)) for n in (3, 4, 5)),
            weights=np.zeros(2),
            seed=0,
            iterations_run=0,
            converged=True,
            ridge_applied=False,
        )
        assert np.array_equal(baselines.cpd_reconstruct(model), np.zeros((3, 4, 5)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(16)
        factors = tuple(rng.standard_normal((n, 2)) for n in (3, 4, 5))
        weights = np.array([2.0, 0.5])
        model = baselines.CpModel(
            dims=(3, 4, 5),
            rank=2,
            factors=factors,
            weights=weights,
            seed=0,
            iterations_run=0,
            converged=True,
            ridge_applied=False,
        )
        expected = cpd_expand_loop(weights, *factors)
        assert np.allclose(
            baselines.cpd_reconstruct(model), expected, rtol=1e-12, atol=1e-12
        )


class TestCpdStudy:
    def test_runs_match_requested_seeds(self):
        x, _ = rank_one_target(seed=17)
        study = baselines.cpd_study(x, 1, seeds=[5, 6, 7])
        assert study.seeds == (5, 6, 7)
        assert len(study.runs) == 3
        assert [run[0] for run in study.runs] == [5, 6, 7]
        for key in baselines.STUDY_METRIC_KEYS:
            assert key in study.mean
            hw = study.ci_halfwidth[key]
            assert math.isnan(hw) or hw >= 0.0

    def test_single_seed_ci_is_nan(self):
        x, _ = rank_one_target(seed=18)
        study = baselines.cpd_study(x, 1, seeds=[0])
        assert all(math.isnan(study.ci_halfwidth[k]) for k in baselines.STUDY_METRIC_KEYS)

    def test_identical_seeds_zero_variance(self):
        x, _ = rank_one_target(seed=19)
        study = baselines.cpd_study(x, 1, seeds=[4] * 10)
        for key in ("psnr_db", "mse", "rel_err"):
            assert study.ci_halfwidth[key] == 0.0

    def test_serial_and_threaded_agree_exactly(self):
        rng = np.random.default_rng(20)
        x = rng.random((8, 9, 10))
        serial = baselines.cpd_study(x, 2, seeds=range(6))
        threaded = baselines.cpd_study(x, 2, seeds=range(6), threads=4)
        for (s1, r1), (s2, r2) in zip(serial.runs, threaded.runs):
            assert s1 == s2
            assert r1["psnr_db"] == r2["psnr_db"]
            assert r1["mse"] == r2["mse"]
            assert r1["rel_err"] == r2["rel_err"]
        for key in ("psnr_db", "mse", "rel_err"):
            assert serial.mean[key] == threaded.mean[key]
            assert serial.ci_halfwidth[key] == threaded.ci_halfwidth[key]

    @pytest.mark.parametrize("threads", [None, 2])
    def test_unconverged_seeds_listed_in_run_order(self, threads):
        x, _ = rank_one_target(seed=21)
        cut = baselines.cpd_study(x, 1, seeds=[3, 1, 2], max_iters=1, threads=threads)
        assert cut.unconverged == (3, 1, 2)
        assert all(len(run) == 2 for run in cut.runs)
        full = baselines.cpd_study(x, 1, seeds=[3, 1, 2], threads=threads)
        assert full.unconverged == ()

    @pytest.mark.parametrize("threads", [None, 2])
    def test_programming_error_propagates(self, monkeypatch, threads):
        def broken(*args, **kwargs):
            raise TypeError("broken fit")

        monkeypatch.setattr(baselines, "cpd_decompose", broken)
        x, _ = rank_one_target(seed=22)
        with pytest.raises(TypeError, match="broken fit"):
            baselines.cpd_study(x, 1, seeds=[3, 4], threads=threads)

    @pytest.mark.parametrize("threads", [None, 2])
    def test_linalg_error_becomes_numeric_error(self, monkeypatch, threads):
        def singular(x, k, seed, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(baselines, "cpd_decompose", singular)
        x, _ = rank_one_target(seed=23)
        with pytest.raises(errors.NumericError, match="seed 7"):
            baselines.cpd_study(x, 1, seeds=[7], threads=threads)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            baselines.cpd_study(np.ones((3, 3, 3)), 1, seeds=[])

    def test_student_t_quantile_used(self):
        # Hand-check the half-width formula on a known sample via one
        # metric: hw = t(0.975, n-1) * sd / sqrt(n), with t(0.975, 9) =
        # 2.262157162798205 to 16 digits. The tolerance is the quantile's
        # own accuracy, which rules out a normal quantile (1.96) or the
        # wrong degrees of freedom by many orders.
        x, _ = rank_one_target(seed=21)
        study = baselines.cpd_study(x, 1, seeds=range(10))
        values = np.array([run[1]["rel_err"] for run in study.runs])
        sd = float(np.std(values, ddof=1))
        expected = 2.262157162798205 * sd / math.sqrt(10)
        assert study.ci_halfwidth["rel_err"] == pytest.approx(expected, rel=1e-12, abs=1e-300)


class TestStudentTQuantile:
    def test_closed_forms(self):
        # df = 1 is Cauchy, t = tan(pi (p - 1/2)); df = 2 has
        # t = (2p - 1) / sqrt(2 p (1 - p)).
        assert baselines._t975(1) == pytest.approx(math.tan(0.475 * math.pi), rel=1e-14)
        assert baselines._t975(2) == pytest.approx(
            0.95 / math.sqrt(2 * 0.975 * 0.025), rel=1e-14
        )

    def test_agrees_with_scipy_stdtrit(self):
        import scipy.special

        dfs = np.arange(1, 1001)
        ours = np.array([baselines._t975(int(df)) for df in dfs])
        theirs = scipy.special.stdtrit(dfs, 0.975)
        assert np.max(np.abs(ours / theirs - 1.0)) < 1e-12

    def test_falls_with_df_and_stays_above_the_normal_quantile(self):
        values = np.array([baselines._t975(df) for df in range(1, 1001)])
        assert np.all(np.diff(values) < 0.0)
        assert values[-1] > 1.959963984540054

    def test_computed_once_per_study(self, monkeypatch):
        calls = []
        t975 = baselines._t975
        monkeypatch.setattr(baselines, "_t975", lambda df: calls.append(df) or t975(df))
        x, _ = rank_one_target(seed=21)
        baselines.cpd_study(x, 1, seeds=range(4))
        assert calls == [3]
        baselines.cpd_study(x, 1, seeds=[0])
        assert calls == [3]
