import dataclasses
import inspect
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import volrank
from volrank import baselines, errors, metrics, s3dsvd, tensor_core as tc, volume_io

from oracles import cpd_expand_loop, tucker_expand_loop
from test_cli import LAPACK_FAILURES, _subprocess_env, fail_lapack
from test_s3dsvd import STREAMED_CASES, exact_multirank, streamed_levels


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


def _direct_relerr(x, normx, core, factors, k):
    """HOOI's error with the residual formed: the reference for ``s3dsvd._relerr``."""
    return tc.frobenius_norm(x - s3dsvd.expand(core, factors, k)) / normx


def _count_expand(monkeypatch):
    """Count calls to ``s3dsvd.expand``, which only the direct residual makes in a fit."""
    calls = []
    expand = s3dsvd.expand

    def counted(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(s3dsvd, "expand", counted)
    return calls


class TestHooiFitHistory:
    """``fit_history`` from the energy identity, and the direct residual below 1e-2."""

    def test_identity_agrees_with_the_reconstruction(self, monkeypatch):
        x = volume_io.gen_synthetic("blobs_noisy", (16, 18, 20), seed=3, noise=0.05)
        k = 6
        model = baselines.tucker_decompose(x, k)
        history = model.fit_history
        assert len(history) > 3 and min(history) > 0.1
        for j, err in enumerate(history):
            fit = baselines.tucker_decompose(x, k, max_iters=j)
            assert abs(err - metrics.rel_err(x, baselines.tucker_reconstruct(fit))) < 1e-13
        monkeypatch.setattr(baselines, "_relerr", _direct_relerr)
        direct = baselines.tucker_decompose(x, k)
        assert len(direct.fit_history) == len(history)
        assert np.array_equal(direct.core, model.core)
        for u, v in zip(direct.factors, model.factors):
            assert np.array_equal(u, v)

    def test_identity_path_forms_no_reconstruction(self, monkeypatch):
        calls = _count_expand(monkeypatch)
        x = np.random.default_rng(3).standard_normal((10, 11, 12))
        model = baselines.tucker_decompose(x, 4)
        assert min(model.fit_history) >= 1e-2
        assert calls == []

    def test_near_exact_fit_takes_the_direct_path(self, monkeypatch):
        calls = _count_expand(monkeypatch)
        x, _, _ = exact_multirank((10, 12, 14), rho=3, seed=1)
        x = x + 1e-6 * np.random.default_rng(2).standard_normal(x.shape)
        history = baselines.tucker_decompose(x, 3).fit_history
        assert max(history) < 1e-2
        assert len(calls) == len(history)
        normx = tc.frobenius_norm(x)
        for j, err in enumerate(history):
            fit = baselines.tucker_decompose(x, 3, max_iters=j)
            assert err == _direct_relerr(x, normx, fit.core, fit.factors, 3)

    def test_overflowing_energy_stays_on_the_identity(self, monkeypatch):
        # ||x||**2 overflows, so normx**2 - ||core||**2 would read inf - inf;
        # the ratio of the two rescaled norms does not.
        calls = _count_expand(monkeypatch)
        y = np.random.default_rng(3).standard_normal((10, 11, 12))
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                float(np.sum(np.square(y * 1e300)))
        huge = baselines.tucker_decompose(y * 1e300, 4).fit_history
        assert calls == []
        plain = baselines.tucker_decompose(y, 4).fit_history
        assert len(huge) == len(plain)
        assert all(math.isfinite(e) for e in huge)
        assert max(abs(a - b) for a, b in zip(huge, plain)) < 1e-13

    def test_underflowing_energy_keeps_the_sweeps_of_the_unscaled_fit(self):
        # At 2**-600 every square is below the least double, so ||x|| once
        # read 0.0 and HOOI stopped at once with fit_history (0.0, 0.0).
        x = volume_io.gen_synthetic("blobs_noisy", (20, 24, 28), seed=3)
        plain = baselines.tucker_decompose(x, 6).fit_history
        tiny = baselines.tucker_decompose(x * 2.0**-600, 6).fit_history
        assert len(plain) == len(tiny) == 6
        assert tiny == pytest.approx(plain, rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize(
    "used,public",
    [(baselines._hooi, baselines.tucker_decompose), (baselines.cpd_study, baselines.cpd_decompose),
     (baselines._study, baselines.cpd_decompose)],
)
def test_sweep_fits_take_the_public_fit_defaults(used, public):
    # run_sweep calls _hooi and _study with their own defaults, so its
    # Tucker rows are tucker_decompose(x, k)'s and its cpd rows cost what a
    # standalone cpd_decompose costs only while each pair agrees.
    for name in ("max_iters", "tol"):
        got = inspect.signature(used).parameters[name].default
        assert got == inspect.signature(public).parameters[name].default, name


class TestTuckerStreamedScore:
    @pytest.mark.parametrize("dims,r", STREAMED_CASES)
    def test_score_is_the_score_of_the_reconstruction(self, dims, r):
        x = np.random.default_rng(43).standard_normal(dims)
        model = baselines.tucker_decompose(x, r, max_iters=3)
        for k in streamed_levels(r):
            got = s3dsvd._score(x, model.core, model.factors, k, "tucker", time_s=0.5)
            want = metrics.score(x, baselines.tucker_reconstruct(model, k), "tucker", k, time_s=0.5)
            assert got.keys() == want.keys()
            assert all(got[key] == want[key] for key in want)

    def test_overflowing_residual_is_scored_from_the_reconstruction(self):
        x = np.random.default_rng(44).random((5, 6, 7)) * 1e160
        model = baselines.tucker_decompose(x, 2, max_iters=2)
        xhat = baselines.tucker_reconstruct(model)
        assert math.isinf(tc._residual(x, tc._blocks(xhat))[0])
        row = s3dsvd._score(x, model.core, model.factors, 2, "tucker")
        assert row == metrics.score(x, xhat, "tucker", 2)


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

    @pytest.mark.parametrize(
        "dims,data_seed,seed,sweeps", [((6, 7, 8), 27, 5, 1), ((5, 7, 9), 30, 2, 25)]
    )
    def test_contracted_mttkrp_sweep_matches_unfolding_sweep(self, dims, data_seed, seed, sweeps):
        # Reference ALS on the compressed core g = decompose(x, rc).core,
        # from the seed's draws in x's space projected as u_m^T f_m: each
        # MTTKRP is the mode's unfolding of g times the Khatri-Rao product
        # of the other two factors, lower mode fastest, each sweep ends with
        # the fit's normalization, and the factors map back as u_m f_m.
        # Unequal sizes make a transposed factor or MTTKRP fail loudly.
        x = np.random.default_rng(data_seed).random(dims)
        k = 3
        hosvd = s3dsvd.decompose(x, min(2 * k, min(dims)))
        rng = np.random.default_rng(seed)
        factors = [u.T @ rng.random((n, k)) for u, n in zip(hosvd.factors, x.shape)]
        for _ in range(sweeps):
            for mode in range(3):
                lo, hi = [factors[m] for m in range(3) if m != mode]
                khatri_rao = (hi[:, None, :] * lo[None, :, :]).reshape(-1, k)
                gram = (hi.T @ hi) * (lo.T @ lo)
                rhs = tc.unfold(hosvd.core, mode + 1) @ khatri_rao
                factors[mode] = np.linalg.solve(gram, rhs.T).T
            norms = [np.linalg.norm(f, axis=0) for f in factors]
            weights = norms[0] * norms[1] * norms[2]
            factors = [f / n for f, n in zip(factors, norms)]
        model = baselines.cpd_decompose(x, k, seed, max_iters=sweeps, tol=0.0)
        assert model.iterations_run == sweeps
        assert not model.ridge_applied
        assert np.max(np.abs(model.weights - weights)) < 1e-10
        for got, u, f in zip(model.factors, hosvd.factors, factors):
            assert got.shape == (u.shape[0], k)
            assert np.max(np.abs(got - u @ f)) < 1e-10

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            baselines.cpd_decompose(np.ones((3, 4, 5)), 4, seed=0)

    @pytest.mark.parametrize(
        "seed,error",
        [(-1, ValueError), (2**64, ValueError), (2**70, ValueError), (2.7, TypeError)],
    )
    def test_seed_a_model_file_cannot_hold_is_refused_before_any_fit(
        self, monkeypatch, seed, error
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran")

        x = np.ones((3, 3, 3))
        with pytest.raises(error, match="seed"):
            baselines.cpd_decompose(x, 1, seed)
        monkeypatch.setattr(baselines, "cpd_decompose", no_fit)
        with pytest.raises(error, match="seed"):
            baselines.cpd_study(x, 1, [0, seed])

    def test_numpy_integer_seed_fits_as_the_int(self):
        x = np.random.default_rng(3).random((4, 5, 6))
        a = baselines.cpd_decompose(x, 2, np.uint64(5), max_iters=3)
        b = baselines.cpd_decompose(x, 2, 5, max_iters=3)
        assert type(a.seed) is int
        assert volume_io.model_to_bytes(a) == volume_io.model_to_bytes(b)

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

    @pytest.mark.parametrize("mode", [1, 2, 3])
    @pytest.mark.parametrize("name,cause", LAPACK_FAILURES)
    def test_lapack_failure_raises_numeric_error_naming_the_mode(
        self, monkeypatch, name, cause, mode
    ):
        # Each mode of the first sweep calls cholesky and solve once on a
        # well-posed system, so a failure from call ``mode`` on hits that mode.
        x = np.random.default_rng(28).random((5, 6, 7))
        fail_lapack(monkeypatch, name, cause, after=mode - 1)
        with pytest.raises(
            errors.NumericError, match=rf"^ALS mode-{mode} normal equations: {cause}$"
        ) as info:
            baselines.cpd_decompose(x, 2, 0)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 255.0, 65535.0, 1e6, 1e9])
    def test_ridge_scales_with_the_volume(self, scale, k):
        # A rank-one volume fit at a higher rank needs the ridge.  A fixed
        # 1e-12 vanished in the rounding of the Gram matrices of 8- and
        # 16-bit value ranges, and LAPACK failed on the ridged system.
        x = volume_io.gen_synthetic("multirank", (10, 11, 12), seed=0, rho=1) * scale
        model = baselines.cpd_decompose(x, k, 0)
        assert metrics.rel_err(x, baselines.cpd_reconstruct(model)) < 1e-7


class TestCpdBlasThreads:
    """A CPD model's bytes do not depend on the OpenBLAS thread count.

    Each GEMM of the sweep gives every output element to one thread, so
    splitting the work changes no sum's order.
    """

    CHILD = (
        "import sys; from volrank import cpd_decompose, read_volume, write_model; "
        "write_model(sys.argv[2], cpd_decompose(read_volume(sys.argv[1]), 8, 1,"
        " max_iters=50, tol=0.0))"
    )

    def test_one_and_two_threads_give_the_same_bytes(self, tmp_path):
        volume = tmp_path / "x.s3dv"
        volume_io.write_volume(volume, volume_io.gen_synthetic("blobs_noisy", (40, 48, 56)))
        models = []
        for threads in ("1", "2"):
            path = tmp_path / f"t{threads}.s3dm"
            subprocess.run(
                [sys.executable, "-c", self.CHILD, str(volume), str(path)],
                env=_subprocess_env(OPENBLAS_NUM_THREADS=threads), check=True, timeout=120,
            )
            models.append(path.read_bytes())
        assert models[0] == models[1]


class TestCpdOnTheCore:
    """ALS fits the core of ``decompose(x, min(2k, min(x.shape)))`` and scores against ``x``."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_final_history_value_is_the_error_on_the_volume(self, seed):
        # Rank 6 leaves part of the noisy volume outside the factors' span,
        # so the history's tail term is what makes it the error on x.
        x = volume_io.gen_synthetic("blobs_noisy", (16, 17, 18), seed=3)
        model = baselines.cpd_decompose(x, 3, seed)
        tail = 1.0 - (tc.frobenius_norm(s3dsvd.decompose(x, 6).core) / tc.frobenius_norm(x)) ** 2
        assert tail > 1e-3
        assert len(model.fit_history) == model.iterations_run
        want = metrics.rel_err(x, baselines.cpd_reconstruct(model))
        assert abs(model.fit_history[-1] - want) < 1e-10

    def test_full_rank_core_matches_uncompressed_als(self):
        # With 2k >= n the core is x rotated by square orthogonal factors,
        # and ALS commutes with that rotation, so the fit is the one of an
        # uncompressed rank-major ALS from the seed's own draws.
        x = np.random.default_rng(31).random((6, 6, 6))
        k, seed, sweeps = 3, 4, 25
        rng = np.random.default_rng(seed)
        ft = [rng.random((n, k)).T for n in x.shape]
        for _ in range(sweeps):
            for mode in range(3):
                lo, hi = [ft[m] @ ft[m].T for m in range(3) if m != mode]
                others = "".join(c for c, m in zip("abc", range(3)) if m != mode)
                rhs = np.einsum(f"abc,r{others[0]},r{others[1]}->r{'abc'[mode]}",
                                x, *(ft[m] for m in range(3) if m != mode))
                ft[mode] = np.linalg.solve(hi * lo, rhs)
            norms = [np.linalg.norm(f, axis=1) for f in ft]
            weights = norms[0] * norms[1] * norms[2]
            ft = [f / n[:, None] for f, n in zip(ft, norms)]
        model = baselines.cpd_decompose(x, k, seed, max_iters=sweeps, tol=0.0)
        assert model.iterations_run == sweeps
        assert np.max(np.abs(model.weights - weights)) < 1e-10
        for got, f in zip(model.factors, ft):
            assert np.max(np.abs(got - f.T)) < 1e-10

    @pytest.mark.parametrize("threads", [None, 2])
    def test_study_compresses_once_and_charges_every_run(self, monkeypatch, threads):
        x = np.random.default_rng(32).random((8, 9, 10))
        find, cut, bases, ranks = s3dsvd._bases, s3dsvd._truncate, [], []

        def slow(x):
            bases.append(x.shape)
            time.sleep(0.2)
            return find(x)

        def counted_cut(x, b, r):
            ranks.append(r)
            return cut(x, b, r)

        monkeypatch.setattr(baselines, "_bases", slow)
        monkeypatch.setattr(baselines, "_truncate", counted_cut)
        study = baselines.cpd_study(x, 3, seeds=[0, 1, 2], max_iters=5, threads=threads)
        assert bases == [x.shape]
        assert ranks == [6]
        assert all(row["time_s"] >= 0.2 for _, row in study.runs)
        assert [len(h) for h in study.fit_histories] == [5, 5, 5]

    @pytest.mark.parametrize("threads", [None, 2])
    @pytest.mark.parametrize("dims", [(8, 9, 10), (33, 64, 64)], ids=["one-slab", "slabs"])
    def test_study_rows_are_score_rows_of_no_reconstruction(self, monkeypatch, dims, threads):
        # 33 rows of 64 x 64 make slabs of 16 and 17 rows, the last row
        # joined to its neighbour; either way each row is the score of the
        # seed's standalone model, bit for bit, and no volume is formed.
        x = volume_io.gen_synthetic("blobs_noisy", dims, seed=35)
        want = [
            metrics.score(x, baselines.cpd_reconstruct(baselines.cpd_decompose(x, 2, s, max_iters=4)),
                          "cpd", 2)
            for s in (0, 1)
        ]

        def forbidden(model):
            raise AssertionError("the study formed a reconstruction")

        monkeypatch.setattr(baselines, "cpd_reconstruct", forbidden)
        study = baselines.cpd_study(x, 2, seeds=[0, 1], max_iters=4, threads=threads)
        for (_, row), expected in zip(study.runs, want):
            assert {**row, "time_s": None} == expected

    def test_overflowing_residual_is_scored_from_the_reconstruction(self):
        # Only an overflowed squared residual needs the volume itself.
        x = np.random.default_rng(36).random((5, 6, 7))
        model = baselines.cpd_decompose(x, 2, 0, max_iters=3)
        huge = dataclasses.replace(model, weights=model.weights * 1e155)
        row = baselines._score_run(x, huge, 2, 0.5)
        assert math.isinf(tc._residual(x, tc._blocks(baselines.cpd_reconstruct(huge)))[0])
        assert row == metrics.score(x, baselines.cpd_reconstruct(huge), "cpd", 2, time_s=0.5)
        assert math.isfinite(row["psnr_db"]) and row["rel_err"] > 1e150

    def test_model_read_from_a_file_has_no_history(self):
        model = baselines.cpd_decompose(np.random.default_rng(33).random((5, 6, 7)), 2, 0)
        assert len(model.fit_history) == model.iterations_run > 0
        assert volume_io.model_from_bytes(volume_io.model_to_bytes(model)).fit_history == ()


class TestFitError:
    def _direct(self, x, weights, factors):
        xhat = tc._rank_one_sum(weights, *factors)
        return tc.frobenius_norm(x - xhat) / tc.frobenius_norm(x), xhat

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_residual(self, seed):
        # Kruskal models of the core g of x at rank 4, mapped back through
        # g's orthonormal factors: the tail of x outside their span plus
        # the Gram identity inside it give the error on x.
        rng = np.random.default_rng(seed)
        x = rng.random((6, 7, 8))
        hosvd = s3dsvd.decompose(x, 4)
        random_model = (rng.random(3), [rng.standard_normal((4, 3)) for _ in range(3)])
        fitted = baselines.cpd_decompose(x, 2, seed=seed, max_iters=20)
        fitted_core = (fitted.weights, [u.T @ f for u, f in zip(hosvd.factors, fitted.factors)])
        for weights, factors in (random_model, fitted_core):
            ghat = tc._rank_one_sum(weights, *factors)
            want, _ = self._direct(x, weights, [u @ f for u, f in zip(hosvd.factors, factors)])
            got = baselines._fit_error(
                tc.frobenius_norm(x), tc.frobenius_norm(hosvd.core),
                tc.inner_product(hosvd.core, ghat), weights, [f.T @ f for f in factors],
            )
            assert got == pytest.approx(want, rel=1e-10)

    def test_sweep_passes_the_fit_inner_product(self, monkeypatch):
        # The sweep takes <g, ghat> from its last MTTKRP, which equals
        # <x, xhat> for the mapped-back model; pin it, and the stopping
        # error it gives, to the directly computed values after each sweep.
        x = np.random.default_rng(26).random((6, 7, 8))
        fit_error, seen = baselines._fit_error, []

        def recorded(normx, normg, inner, weights, grams):
            err = fit_error(normx, normg, inner, weights, grams)
            seen.append((inner, err))
            return err

        monkeypatch.setattr(baselines, "_fit_error", recorded)
        baselines.cpd_decompose(x, 3, seed=0, max_iters=10, tol=0.0)
        monkeypatch.setattr(baselines, "_fit_error", fit_error)
        assert len(seen) == 10
        for sweeps, (inner, err) in enumerate(seen, start=1):
            model = baselines.cpd_decompose(x, 3, seed=0, max_iters=sweeps, tol=0.0)
            want, xhat = self._direct(x, model.weights, model.factors)
            assert inner == pytest.approx(tc.inner_product(x, xhat), rel=1e-10)
            assert err == pytest.approx(want, rel=1e-10)
            assert model.fit_history[-1] == err

    def test_exact_fit_is_zero_not_nan(self):
        rng = np.random.default_rng(25)
        factors = [rng.standard_normal((n, 3)) for n in (4, 5, 6)]
        grams = [f.T @ f for f in factors]
        weights = rng.random(3) + 0.5
        x = tc._rank_one_sum(weights, *factors)
        normx, inner = tc.frobenius_norm(x), tc.inner_product(x, x)
        assert baselines._fit_error(normx, normx, inner, weights, grams) < 1e-7
        # An inner product a rounding error too large cancels below zero, and
        # so does the tail of a core norm one ulp above the volume's.
        assert baselines._fit_error(normx, normx, inner * (1 + 1e-12), weights, grams) == 0.0
        normg = np.nextafter(normx, np.inf)
        assert baselines._fit_error(normx, normg, inner * (1 + 1e-12), weights, grams) == 0.0


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
        # Ten distinct seeds whose runs all reach the same bits: agreeing
        # runs give a half-width of exactly 0.0, not a rounding residue.
        x, _ = rank_one_target(seed=19)
        study = baselines.cpd_study(x, 1, seeds=range(10))
        for key in ("psnr_db", "mse", "rel_err"):
            assert len({row[key] for _, row in study.runs}) == 1
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

        monkeypatch.setattr(baselines, "_cpd_als", broken)
        x, _ = rank_one_target(seed=22)
        with pytest.raises(TypeError, match="broken fit"):
            baselines.cpd_study(x, 1, seeds=[3, 4], threads=threads)

    @pytest.mark.parametrize("threads", [None, 2])
    def test_linalg_error_becomes_numeric_error(self, monkeypatch, threads):
        x = np.random.default_rng(29).random((5, 6, 7))
        fail_lapack(monkeypatch, "cholesky", "Matrix is not positive definite")
        with pytest.raises(
            errors.NumericError, match="^cpd study run failed for seed 0: ALS mode-"
        ) as info:
            baselines.cpd_study(x, 2, seeds=[0], threads=threads)
        assert isinstance(info.value.__cause__.__cause__, np.linalg.LinAlgError)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            baselines.cpd_study(np.ones((3, 3, 3)), 1, seeds=[])

    def test_repeated_seeds_rejected_before_any_fit(self, monkeypatch):
        # A repeated seed is a copy of one fit, not another run.
        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr(baselines, "_bases", no_fit)
        with pytest.raises(ValueError, match="^seeds must be distinct, got 4, 4$"):
            baselines.cpd_study(np.ones((3, 3, 3)), 1, seeds=[4, 4])

    def test_student_t_quantile_used(self):
        # Hand-check the half-width formula on a known sample via one
        # metric: hw = t(0.975, n-1) * sd / sqrt(n), with t(0.975, 9) =
        # 2.262157162798205 to 16 digits. The tolerance is the quantile's
        # own accuracy, which rules out a normal quantile (1.96) or the
        # wrong degrees of freedom by many orders.  Every seed fits an
        # exact rank-one target to the same bits, so the sample is a
        # rank-two fit of a random volume, whose seeds spread.
        x = np.random.default_rng(21).random((8, 9, 10))
        study = baselines.cpd_study(x, 2, seeds=range(10))
        values = np.array([run[1]["rel_err"] for run in study.runs])
        sd = float(np.std(values, ddof=1))
        assert sd > 1e-6
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
