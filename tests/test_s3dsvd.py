import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from volrank import errors, metrics, s3dsvd, tensor_core as tc, volume_io

from test_cli import _subprocess_env


def exact_multirank(dims, rho, seed=0, diagonal_core=False):
    """Tensor of exact multilinear rank (rho, rho, rho) plus its pieces."""
    rng = np.random.default_rng(seed)
    qs = [np.linalg.qr(rng.standard_normal((n, rho)))[0] for n in dims]
    if diagonal_core:
        core = np.zeros((rho, rho, rho))
        idx = np.arange(rho)
        core[idx, idx, idx] = np.linspace(2.0 * rho, 1.0, rho)
    else:
        core = rng.standard_normal((rho, rho, rho))
    x = core
    for mode, q in enumerate(qs, start=1):
        x = tc.mode_product(x, q, mode)
    return x, core, qs


class TestDecompose:
    def test_rank_one_input(self):
        rng = np.random.default_rng(1)
        u, v, w = (rng.standard_normal(n) for n in (4, 5, 6))
        u, v, w = u / np.linalg.norm(u), v / np.linalg.norm(v), w / np.linalg.norm(w)
        x = 3.5 * tc.outer3(u, v, w)
        model = s3dsvd.decompose(x, 1)
        assert abs(abs(model.qsigma[0]) - tc.frobenius_norm(x)) < 1e-12
        assert np.allclose(s3dsvd.reconstruct(model, 1), x, atol=1e-12)

    def test_zero_tensor(self):
        model = s3dsvd.decompose(np.zeros((3, 4, 5)), 1)
        assert np.array_equal(model.qsigma, np.zeros(1))
        assert np.array_equal(s3dsvd.reconstruct(model, 1), np.zeros((3, 4, 5)))

    def test_exact_multirank_recovery(self):
        x, _, _ = exact_multirank((10, 12, 14), rho=4, seed=2)
        model = s3dsvd.decompose(x, 4)
        xr = s3dsvd.reconstruct(model, 4)
        assert tc.frobenius_norm(x - xr) / tc.frobenius_norm(x) < 1e-10

    def test_reconstruction_is_c_contiguous(self):
        rng = np.random.default_rng(4)
        model = s3dsvd.decompose(rng.standard_normal((5, 6, 7)), 4)
        for k in (1, 3, 4):
            assert s3dsvd.reconstruct(model, k).flags.c_contiguous

    def test_qsigma_equals_core_diagonal_exactly(self):
        rng = np.random.default_rng(3)
        model = s3dsvd.decompose(rng.standard_normal((6, 7, 8)), 5)
        for i in range(5):
            assert model.qsigma[i] == model.core[i, i, i]

    def test_factor_orthonormality(self):
        rng = np.random.default_rng(4)
        model = s3dsvd.decompose(rng.standard_normal((8, 9, 10)), 6)
        for u in model.factors:
            assert np.max(np.abs(u.T @ u - np.eye(6))) < 1e-10

    def test_qsigma_is_separable_projection(self):
        # Each coefficient equals the inner product of x with its rank-one
        # basis term, which is what makes the energy identity hold.
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 7, 8))
        model = s3dsvd.decompose(x, 6)
        u1, u2, u3 = model.factors
        for i in range(6):
            proj = tc.inner_product(x, tc.outer3(u1[:, i], u2[:, i], u3[:, i]))
            assert model.qsigma[i] == pytest.approx(proj, abs=1e-10)

    def test_rank_out_of_range(self):
        x = np.ones((4, 5, 6))
        with pytest.raises(ValueError):
            s3dsvd.decompose(x, 5)
        with pytest.raises(ValueError):
            s3dsvd.decompose(x, 0)

    def test_non_finite_input(self):
        x = np.ones((3, 3, 3))
        x[0, 0, 0] = np.inf
        with pytest.raises(errors.NumericError):
            s3dsvd.decompose(x, 2)

    def test_overflowing_volume_raises_numeric_error(self):
        # Finite, but its norm and the contraction overflow.
        with pytest.raises(errors.NumericError):
            s3dsvd.decompose(np.full((8, 8, 8), 1e308), 2)

    def test_contract_rejects_a_non_finite_core(self):
        u = np.full((8, 1), 1 / np.sqrt(8))
        with np.errstate(over="ignore"), pytest.raises(errors.NumericError, match="core"):
            s3dsvd.contract(np.full((8, 8, 8), 1e308), (u, u, u))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((7, 8, 9))
        m1 = s3dsvd.decompose(x, 5)
        m2 = s3dsvd.decompose(x, 5)
        assert np.array_equal(m1.core, m2.core)
        assert np.array_equal(m1.qsigma, m2.qsigma)
        for u1, u2 in zip(m1.factors, m2.factors):
            assert np.array_equal(u1, u2)

    # At (8, 32, 32) mode 1's one TSQR block is an F-contiguous view of the
    # volume, which the in-place LAPACK QR would overwrite if handed it.
    @pytest.mark.parametrize("dims", [(8, 32, 32), (32, 8, 32), (40, 48, 56)])
    def test_leaves_its_input_unchanged(self, dims):
        x = np.random.default_rng(7).standard_normal(dims)
        before = x.copy()
        s3dsvd.decompose(x, 4)
        assert np.array_equal(x, before)


class TestReconstruct:
    def test_error_non_increasing_in_k(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10, 12, 14))
        model = s3dsvd.decompose(x, 10)
        errs = [
            tc.frobenius_norm(x - s3dsvd.reconstruct(model, k)) for k in range(1, 11)
        ]
        for prev, curr in zip(errs, errs[1:]):
            assert curr <= prev + 1e-10

    def test_k_out_of_range(self):
        model = s3dsvd.decompose(np.ones((3, 4, 5)), 2)
        for bad in (0, 3, -1):
            with pytest.raises(ValueError):
                s3dsvd.reconstruct(model, bad)

    def test_r_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((12, 13, 14))
        for k in (2, 5):
            base = s3dsvd.reconstruct(s3dsvd.decompose(x, k), k)
            for r in (k + 3, min(x.shape)):
                other = s3dsvd.reconstruct(s3dsvd.decompose(x, r), k)
                assert np.max(np.abs(other - base)) < 1e-12

    # Wide unfoldings go through the TSQR, a tall one (p q <= n) straight to
    # the SVD, mode 2 copies its blocks, and a length-1 mode allows r = 1 only.
    @pytest.mark.parametrize("dims", [(12, 13, 14), (40, 2, 3), (6, 7, 8), (5, 1, 4)])
    def test_factors_are_prefixes_of_the_bases(self, dims):
        x = np.random.default_rng(11).standard_normal(dims)
        bases = s3dsvd._bases(x)
        for r in range(1, min(dims) + 1):
            model = s3dsvd.decompose(x, r)
            own = tuple(tc.mode_factor(x, mode, r) for mode in (1, 2, 3))
            for got, base, alone in zip(model.factors, bases, own):
                assert np.array_equal(got, base[:, :r])
                assert np.array_equal(got, alone)
            assert np.array_equal(model.core, s3dsvd.contract(x, own))

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 7, 8))
        model = s3dsvd.decompose(x, 4)
        u1 = model.factors[0].copy()
        core = model.core.copy()
        u1[:, 2] = -u1[:, 2]
        core[2, :, :] = -core[2, :, :]
        flipped = dataclasses.replace(
            model,
            factors=(u1, model.factors[1], model.factors[2]),
            core=core,
        )
        for k in (1, 3, 4):
            assert np.max(
                np.abs(s3dsvd.reconstruct(flipped, k) - s3dsvd.reconstruct(model, k))
            ) < 1e-12

    def test_hosvd_truncation_bound(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((9, 10, 11))
        model = s3dsvd.decompose(x, 9)
        tails = []
        for mode in (1, 2, 3):
            s = tc.svd(tc.unfold(x, mode)).singular_values
            tails.append(np.cumsum((s**2)[::-1])[::-1])
        for k in range(1, 10):
            err2 = tc.frobenius_norm(x - s3dsvd.reconstruct(model, k)) ** 2
            bound = sum(float(t[k]) if k < len(t) else 0.0 for t in tails)
            assert err2 <= bound * (1 + 1e-10) + 1e-12


# (dims, r): the expansion's last product has n1 n2 rows and slabs of
# ceil(8 * 8192 / n3) rows, so these cover a last slab of two rows
# (10 of 8), a one-row tail folded in with n1 = 1 (9 of 8), ragged slabs
# whose blocks straddle them (21 of 14, 300 of 219) and one slab (156).
STREAMED_CASES = [((2, 5, 8192), 2), ((1, 9, 8192), 1), ((3, 7, 5000), 3),
                  ((20, 15, 300), 8), ((12, 13, 14), 6)]


def streamed_levels(r):
    return sorted({1, max(1, r // 2), r})


class TestStreamedScore:
    @pytest.mark.parametrize("dims,r", STREAMED_CASES)
    def test_score_is_the_score_of_the_reconstruction(self, dims, r):
        x = np.random.default_rng(40).standard_normal(dims)
        model = s3dsvd.decompose(x, r)
        for k in streamed_levels(r):
            per = metrics.per(model, k)
            got = s3dsvd._score(x, model.core, model.factors, k, "s3dsvd", per, 0.5)
            want = metrics.score(x, s3dsvd.reconstruct(model, k), "s3dsvd", k, per, 0.5)
            assert got.keys() == want.keys()
            assert all(got[key] == want[key] for key in want)

    def test_overflowing_residual_is_scored_from_the_reconstruction(self):
        # A huge finite x whose squared residual overflows float64.
        x = np.random.default_rng(41).random((5, 6, 7)) * 1e160
        model = s3dsvd.decompose(x, 2)
        xhat = s3dsvd.reconstruct(model, 2)
        assert math.isinf(tc._residual(x, tc._blocks(xhat))[0])
        row = s3dsvd._score(x, model.core, model.factors, 2, "s3dsvd", time_s=0.5)
        assert row == metrics.score(x, xhat, "s3dsvd", 2, time_s=0.5)
        assert math.isfinite(row["psnr_db"]) and row["rel_err"] > 0.1

    @pytest.mark.parametrize("dims,r", STREAMED_CASES)
    def test_expand_matches_einsum(self, dims, r):
        x = np.random.default_rng(42).standard_normal(dims)
        model = s3dsvd.decompose(x, r)
        for k in streamed_levels(r):
            us = [u[:, :k] for u in model.factors]
            want = np.einsum("abc,ia,jb,kc->ijk", model.core[:k, :k, :k], *us)
            got = s3dsvd.expand(model.core, model.factors, k)
            assert got.flags.c_contiguous
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


class TestDiagonalExpansion:
    def test_rank_one_matches_reconstruct(self):
        rng = np.random.default_rng(11)
        x = tc.outer3(*(rng.standard_normal(n) for n in (4, 5, 6)))
        model = s3dsvd.decompose(x, 1)
        assert np.allclose(
            s3dsvd.diagonal_expansion(model, 1),
            s3dsvd.reconstruct(model, 1),
            atol=1e-12,
        )

    def test_energy_identity_full_rank(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 9, 10))
        model = s3dsvd.decompose(x, 8)
        normx2 = tc.frobenius_norm(x) ** 2
        for k in range(1, 9):
            resid2 = tc.frobenius_norm(x - s3dsvd.diagonal_expansion(model, k)) ** 2
            captured = float(np.sum(model.qsigma[:k] ** 2))
            assert abs(resid2 + captured - normx2) / normx2 < 1e-10

    def test_k_zero_is_error(self):
        model = s3dsvd.decompose(np.ones((3, 4, 5)), 2)
        with pytest.raises(ValueError):
            s3dsvd.diagonal_expansion(model, 0)

    def test_reconstruct_at_least_as_good(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((7, 8, 9))
        model = s3dsvd.decompose(x, 7)
        for k in range(1, 8):
            full = tc.frobenius_norm(x - s3dsvd.reconstruct(model, k))
            diag = tc.frobenius_norm(x - s3dsvd.diagonal_expansion(model, k))
            assert full <= diag + 1e-10


class TestEpsilonR:
    def test_rank_one_is_zero(self):
        rng = np.random.default_rng(14)
        x = 2.0 * tc.outer3(*(rng.standard_normal(n) for n in (4, 5, 6)))
        model = s3dsvd.decompose(x, 1)
        assert s3dsvd.epsilon_r(model, x, 1) < 1e-10

    def test_matches_direct_ratio(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((8, 9, 10))
        model = s3dsvd.decompose(x, 8)
        for k in (1, 3, 8):
            direct = tc.frobenius_norm(
                x - s3dsvd.diagonal_expansion(model, k)
            ) / tc.frobenius_norm(x)
            assert abs(s3dsvd.epsilon_r(model, x, k) - direct) < 1e-10

    def test_diagonal_core_instance_reaches_zero(self):
        # The exact value is 0; the residual of the expansion is at the
        # rounding level, far inside the bound.
        x, _, _ = exact_multirank((9, 10, 11), rho=3, seed=16, diagonal_core=True)
        model = s3dsvd.decompose(x, 3)
        assert s3dsvd.epsilon_r(model, x, 3) < 1e-7

    def test_zero_norm_is_degenerate(self):
        model = s3dsvd.decompose(np.zeros((3, 4, 5)), 2)
        with pytest.raises(errors.DegenerateInputError):
            s3dsvd.epsilon_r(model, np.zeros((3, 4, 5)), 1)

    def test_shape_mismatch(self):
        # An 8x8x1 model's expansion must not broadcast against 8x8x8.
        rng = np.random.default_rng(18)
        model = s3dsvd.decompose(rng.random((8, 8, 1)), 1)
        with pytest.raises(errors.ShapeError):
            s3dsvd.epsilon_r(model, rng.random((8, 8, 8)), 1)

    def test_huge_volume_is_finite(self):
        x = np.full((8, 8, 8), 1e200)
        with np.errstate(over="ignore"):
            eps = s3dsvd.epsilon_r(s3dsvd.decompose(x, 1), x, 1)
        assert np.isfinite(eps) and eps < 1e-12


class TestOrderingReport:
    @staticmethod
    def _model_with_qsigma(values):
        values = np.asarray(values, dtype=np.float64)
        r = len(values)
        core = np.zeros((r, r, r))
        idx = np.arange(r)
        core[idx, idx, idx] = values
        eye = np.eye(r)
        return s3dsvd.S3dModel(
            dims=(r, r, r), rank=r, factors=(eye, eye, eye), core=core
        )

    def test_monotone_sequence_has_no_violations(self):
        report = s3dsvd.ordering_report(self._model_with_qsigma([4.0, 2.0, 1.0]))
        assert [entry[2] for entry in report] == [False, False, False]

    def test_violation_flagged_at_index_one(self):
        report = s3dsvd.ordering_report(self._model_with_qsigma([4.0, 1.0, 2.0]))
        assert [entry[2] for entry in report] == [False, True, False]
        assert report[1][0] == 1
        assert report[1][1] == 1.0

    def test_survey_on_smooth_volumes_is_well_formed(self):
        # Diagnostic only: no claim about how often violations occur.
        from volrank import volume_io

        violations = 0
        for seed in range(10):
            x = volume_io.gen_synthetic("blobs", (10, 11, 12), seed=seed, blobs=5)
            model = s3dsvd.decompose(x, 6)
            report = s3dsvd.ordering_report(model)
            assert len(report) == 6
            assert report[-1][2] is False
            violations += sum(1 for entry in report if entry[2])
        assert violations >= 0


class TestBlasThreads:
    """A fit agrees across OpenBLAS thread counts to a stated tolerance.

    Threaded QR rounds differently, so the model bytes may differ; the
    agreement rests on the retained singular values being well separated.
    The smooth 96x128x160 blob volume at r = 8 has every gap among the
    leading nine singular values of each unfolding above 8e-4 of the
    largest; its factors agreed to 5e-15 across 1 and 2 threads.
    """

    DIMS, R = (96, 128, 160), 8
    TOL = 1e-10
    CHILD = (
        "import sys; from volrank import decompose, read_volume, write_model; "
        "write_model(sys.argv[2], decompose(read_volume(sys.argv[1]), int(sys.argv[3])))"
    )

    def _fit(self, volume, path, threads):
        subprocess.run(
            [sys.executable, "-c", self.CHILD, str(volume), str(path), str(self.R)],
            env=_subprocess_env(OPENBLAS_NUM_THREADS=threads), check=True, timeout=120,
        )
        return volume_io.read_model(path)

    def test_one_and_two_threads_agree(self, tmp_path):
        x = volume_io.gen_synthetic("blobs", self.DIMS, seed=0)
        for mode in (1, 2, 3):
            a = np.moveaxis(x, mode - 1, 0).reshape(x.shape[mode - 1], -1)
            s = np.linalg.svd(a, compute_uv=False)[: self.R + 1]
            assert np.min(-np.diff(s)) > 1e-4 * s[0]
        volume = tmp_path / "x.s3dv"
        volume_io.write_volume(volume, x)
        one = self._fit(volume, tmp_path / "t1.s3dm", "1")
        two = self._fit(volume, tmp_path / "t2.s3dm", "2")
        for u1, u2 in zip(one.factors, two.factors):
            assert np.max(np.abs(u1 - u2)) < self.TOL
        scale = np.max(np.abs(one.core))
        assert np.max(np.abs(one.core - two.core)) < self.TOL * scale
        psnr1 = metrics.psnr(x, s3dsvd.reconstruct(one, self.R))
        psnr2 = metrics.psnr(x, s3dsvd.reconstruct(two, self.R))
        assert abs(psnr1 - psnr2) < 1e-9


class TestThreadCountBytes:
    """S3DM bytes do not depend on the OpenBLAS thread count.

    Every QR and SVD of a per-mode factor runs on one OpenBLAS thread,
    and the GEMMs and the blocked volume sums give each output element
    to one thread.  Before that, threaded QRs of tall unfoldings changed
    the last bits of both volumes' s3dsvd and Tucker models.
    """

    FITS = (((96, 128, 160), 48), ((128, 128, 128), 32))
    CHILD = (
        "import sys\n"
        "from volrank import decompose, read_volume, tucker_decompose, write_model\n"
        "volumes, out = sys.argv[1:3]\n"
        "for name, r in zip(sys.argv[3::2], sys.argv[4::2]):\n"
        "    x = read_volume(f'{volumes}/{name}.s3dv')\n"
        "    write_model(f'{out}/{name}-s3dsvd.s3dm', decompose(x, int(r)))\n"
        "    write_model(f'{out}/{name}-tucker.s3dm', tucker_decompose(x, 16))\n"
    )

    def test_one_and_two_threads_write_the_same_bytes(self, tmp_path):
        if tc._openblas() is None:
            pytest.skip("numpy's bundled OpenBLAS was not found, so its LAPACK "
                        "calls cannot be held to one thread")
        args = []
        for dims, r in self.FITS:
            name = "x".join(map(str, dims))
            x = volume_io.gen_synthetic("blobs_noisy", dims, seed=0)
            volume_io.write_volume(tmp_path / f"{name}.s3dv", x)
            args += [name, str(r)]
        files = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            subprocess.run(
                [sys.executable, "-c", self.CHILD, str(tmp_path), str(out), *args],
                env=_subprocess_env(OPENBLAS_NUM_THREADS=threads), check=True, timeout=300,
            )
            files[threads] = {f.name: f.read_bytes() for f in sorted(out.glob("*.s3dm"))}
        assert len(files["1"]) == 4
        assert files["1"].keys() == files["2"].keys()
        differ = [name for name in files["1"] if files["1"][name] != files["2"][name]]
        assert differ == []
