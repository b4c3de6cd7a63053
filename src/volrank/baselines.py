"""Baseline decompositions and the seeded multi-run study protocol.

Two baselines are provided for comparison against the structured 3D SVD:

* Tucker via HOOI (higher-order orthogonal iteration): the truncated
  HOSVD from :func:`volrank.s3dsvd.decompose`, refined by sweeps until
  the relative-error improvement falls below tolerance.  A sweep shares
  its partial contractions between modes, so it makes two products with
  the full volume, not four.  Both models share the s3dsvd expansion and
  level check.
* CPD via ALS (alternating least squares) with seeded random
  initialization, per-sweep column normalization into non-negative
  weights, and a ridge fallback when the normal equations are not
  numerically positive definite.  Each sweep runs on numpy's BLAS and
  LAPACK alone.  Its MTTKRPs (the volume summed against matching columns
  of two factors) contract the volume one factor at a time (Phan,
  Tichavsky & Cichocki, IEEE TSP 2013), and its stopping error comes from
  the Gram identity, so it builds no unfolding, Khatri-Rao matrix or
  reconstruction.

``cpd_study`` runs the ALS fit once per seed and aggregates each metric
into a mean and a Student-t 95% confidence half-width, optionally
fanning the runs out over a thread pool; serial and threaded execution
produce identical numbers.
"""

from concurrent.futures import ThreadPoolExecutor
import contextvars
from dataclasses import dataclass
import math
import time

import numpy as np

from . import metrics
from .errors import DegenerateInputError, NumericError
from .s3dsvd import contract, decompose, expand
from .tensor_core import (
    _check_finite,
    _check_level,
    _rank_one_sum,
    as_tensor3,
    frobenius_norm,
    mode_factor,
    mode_product,
)

__all__ = [
    "CpModel",
    "CpStudy",
    "TuckerModel",
    "cpd_decompose",
    "cpd_reconstruct",
    "cpd_study",
    "tucker_decompose",
    "tucker_reconstruct",
]

STUDY_METRIC_KEYS = ("psnr_db", "mse", "rel_err", "time_s")


@dataclass(frozen=True)
class TuckerModel:
    """Tucker decomposition with orthonormal factors and a dense core.

    ``fit_history`` holds the relative error after initialization and
    after each completed sweep; HOOI never increases it beyond
    floating-point noise.
    """

    dims: tuple
    rank: int
    factors: tuple
    core: np.ndarray
    fit_history: tuple


@dataclass(frozen=True)
class CpModel:
    """Rank-``rank`` CPD: unit-norm factor columns and non-negative weights.

    ``seed`` records the initialization so a fit can be reproduced
    bit for bit; ``ridge_applied`` flags that at least one least-squares
    step needed diagonal regularization.
    """

    dims: tuple
    rank: int
    factors: tuple
    weights: np.ndarray
    seed: int
    iterations_run: int
    converged: bool
    ridge_applied: bool


@dataclass(frozen=True)
class CpStudy:
    """Aggregated multi-seed CPD runs.

    ``runs`` is a tuple of ``(seed, row)``, ``row`` being the run's
    :func:`volrank.metrics.score` row with its fit time as ``time_s``;
    ``mean`` and ``ci_halfwidth`` map each of ``STUDY_METRIC_KEYS`` to the
    sample mean and the 95% Student-t confidence half-width (NaN when
    only one seed was run, 0.0 when all runs agree exactly).
    ``unconverged`` holds, in run order, the seeds whose fit stopped at
    ``max_iters`` without converging.
    """

    k: int
    seeds: tuple
    runs: tuple
    mean: dict
    ci_halfwidth: dict
    unconverged: tuple


def tucker_decompose(x, k, max_iters=50, tol=1e-6):
    """Fit a rank-``(k, k, k)`` Tucker model to ``x`` with HOOI.

    Starts from ``decompose(x, k)``, the truncated HOSVD, and alternates
    mode updates until the relative-error improvement drops below
    ``tol`` or ``max_iters`` sweeps have run.  Each sweep computes
    ``t1 = x x_1 u1^T`` once for the mode-2 update and
    ``t12 = t1 x_2 u2^T`` once for the mode-3 update and the core
    (Kolda & Bader, SIAM Review 2009, section 4.2).
    """
    x = as_tensor3(x)
    hosvd = decompose(x, k)
    return _hooi(x, hosvd, hosvd.rank, max_iters, tol)


def _hooi(x, hosvd, k, max_iters=50, tol=1e-6):
    """HOOI at rank ``k`` from the leading ``k`` columns of the HOSVD ``hosvd``.

    :func:`mode_factor` keeps the leading columns of one full SVD, so for
    any ``hosvd = decompose(x, r)`` with ``r >= k`` those columns are
    ``decompose(x, k)``'s factors.  Below ``r`` the core is contracted
    afresh from them, never sliced from ``hosvd.core``, so the fit equals
    ``tucker_decompose(x, k)`` bit for bit.
    """
    x = as_tensor3(x)
    if k == hosvd.rank:
        factors, core = hosvd.factors, hosvd.core
    else:
        factors = tuple(u[:, :k].copy() for u in hosvd.factors)
        core = contract(x, factors)
    normx = frobenius_norm(x)

    def relerr(core, factors):
        if normx == 0.0:
            return 0.0
        return frobenius_norm(x - expand(core, factors, k)) / normx

    history = [relerr(core, factors)]
    for _ in range(max_iters):
        _, u2, u3 = factors
        u1 = mode_factor(mode_product(mode_product(x, u2.T, 2), u3.T, 3), 1, k)
        t1 = mode_product(x, u1.T, 1)
        u2 = mode_factor(mode_product(t1, u3.T, 3), 2, k)
        t12 = mode_product(t1, u2.T, 2)
        u3 = mode_factor(t12, 3, k)
        factors, core = (u1, u2, u3), mode_product(t12, u3.T, 3)
        history.append(relerr(core, factors))
        if history[-2] - history[-1] < tol:
            break
    return TuckerModel(
        dims=x.shape,
        rank=k,
        factors=factors,
        core=core,
        fit_history=tuple(history),
    )


def tucker_reconstruct(model, k=None):
    """Expand a Tucker model, optionally truncated to its leading ``k`` levels."""
    k = _check_level(model.rank if k is None else k, model.rank)
    return expand(model.core, model.factors, k)


def _fit_error(normx, inner, weights, factors):
    """Relative error ``||x - xhat|| / ||x||`` without forming ``xhat``.

    ``xhat`` is the Kruskal sum of ``weights`` and ``factors`` and
    ``inner`` is ``<x, xhat>``.  The Gram identity
    ``||x - xhat||^2 = ||x||^2 - 2 <x, xhat> + w^T (G1 * G2 * G3) w``, with
    ``Gm`` the factor Gram matrices, can cancel to a tiny negative value
    for an exact fit, so the square is clamped at 0.
    """
    g1, g2, g3 = (f.T @ f for f in factors)
    sq = normx * normx - 2.0 * inner + weights @ (g1 * g2 * g3) @ weights
    return math.sqrt(max(sq, 0.0)) / (normx if normx else 1.0)


def cpd_decompose(x, k, seed, max_iters=300, tol=1e-6):
    """Fit a rank-``k`` CPD to ``x`` with seeded ALS.

    Factors start as uniform [0, 1) draws from
    ``numpy.random.default_rng(seed)``.  Each sweep solves the three
    normal-equation least-squares problems, then renormalizes factor
    columns into non-negative ``weights``.  Iteration stops when the
    change in relative error between sweeps falls below ``tol`` or after
    ``max_iters`` sweeps; the error comes from :func:`_fit_error`.  A
    normal-equation matrix whose Cholesky factorization fails gets a
    ``1e-12`` diagonal ridge and the fit continues with ``ridge_applied``
    set.

    Raises
    ------
    NumericError
        If a Gram matrix, an MTTKRP (``x`` summed against matching columns
        of the other two factors), an updated factor or the weights are not
        finite, as when ``x`` makes the normal equations overflow float64.
    """
    x = as_tensor3(x)
    k = _check_level(k, min(x.shape), "rank")
    _check_finite(x, "input tensor")
    seed = int(seed)
    rng = np.random.default_rng(seed)
    factors = [rng.random((n, k)) for n in x.shape]
    weights = np.ones(k)
    normx = frobenius_norm(x)
    ridge_applied = False
    prev_err = None
    iterations = 0
    converged = False
    for sweep in range(max_iters):
        # Modes 1 and 2 share x3 = x x_3 f3, as f3 changes only in mode 3.
        x3 = np.tensordot(x, factors[2], 1)
        for mode in range(3):
            lo, hi = [factors[m] for m in range(3) if m != mode]
            gram = (hi.T @ hi) * (lo.T @ lo)
            if mode == 0:
                rhs = np.einsum("ijr,jr->ir", x3, lo)
            elif mode == 1:
                rhs = np.einsum("ijr,ir->jr", x3, lo)
            else:
                rhs = np.einsum("rjl,jr->lr", np.tensordot(lo, x, (0, 0)), hi)
            _check_finite(gram, f"ALS mode-{mode + 1} Gram matrix")
            _check_finite(rhs, f"ALS mode-{mode + 1} MTTKRP")
            # Cholesky is only the positive-definiteness test here.
            try:
                np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                gram = gram + 1e-12 * np.eye(k)
                ridge_applied = True
                np.linalg.cholesky(gram)
            factors[mode] = np.linalg.solve(gram, rhs.T).T
            _check_finite(factors[mode], f"ALS mode-{mode + 1} factor")
        # <x, xhat> from the last mode's MTTKRP, before normalization.
        inner = float(np.sum(factors[2] * rhs))
        norms = [np.linalg.norm(f, axis=0) for f in factors]
        weights = norms[0] * norms[1] * norms[2]
        _check_finite(weights, "ALS weights")
        for f, n in zip(factors, norms):
            f /= np.where(n == 0.0, 1.0, n)
        iterations = sweep + 1
        err = _fit_error(normx, inner, weights, factors)
        if prev_err is not None and abs(prev_err - err) < tol:
            converged = True
            break
        prev_err = err
    return CpModel(
        dims=x.shape,
        rank=k,
        factors=tuple(factors),
        weights=weights,
        seed=seed,
        iterations_run=iterations,
        converged=converged,
        ridge_applied=ridge_applied,
    )


def cpd_reconstruct(model):
    """Sum of the model's weighted rank-one terms, as a C-contiguous volume.

    The Kruskal sum is one GEMM (:func:`volrank.tensor_core._rank_one_sum`),
    so metrics and :func:`volrank.volume_io.write_volume` use the result
    without a strided copy.
    """
    return _rank_one_sum(model.weights, *model.factors)


def _study_run(x, k, seed, max_iters, tol):
    # Relabel numeric failures only; a bug such as a TypeError propagates.
    try:
        start = time.perf_counter()
        model = cpd_decompose(x, k, seed, max_iters=max_iters, tol=tol)
        elapsed = time.perf_counter() - start
        row = metrics.score(x, cpd_reconstruct(model), "cpd", k, time_s=elapsed)
    except (ArithmeticError, np.linalg.LinAlgError, DegenerateInputError) as exc:
        raise NumericError(f"cpd study run failed for seed {seed}: {exc}") from exc
    return (seed, row), model.converged


def _t975(df):
    """The 0.975 quantile of Student's t with ``df`` degrees of freedom, an integer.

    ``A(t|df) = P(|T| <= t)`` is an exact finite series in
    ``theta = atan(t / sqrt(df))`` (Abramowitz & Stegun 1964, 26.7.3 for
    odd and 26.7.4 for even ``df``).  Bisection on ``theta`` in
    ``(0, pi/2)`` solves ``A = 0.95`` until the interval stops shrinking;
    the result agrees with ``scipy.special.stdtrit(df, 0.975)`` to about
    1e-13 relative.
    """
    odd = df % 2

    def coverage(theta):
        # sum_j a_j cos(theta)**(2j) over j < df // 2, with a_0 = 1 and
        # a_j / a_(j-1) = (2j - 1 + odd) / (2j + odd).
        c, s = math.cos(theta), math.sin(theta)
        term, total = 1.0, 0.0
        for j in range(1, df // 2 + 1):
            total += term
            term *= (2 * j - 1 + odd) / (2 * j + odd) * c * c
        if odd:
            return 2.0 / math.pi * (theta + s * c * total)
        return s * total

    lo, hi = 0.0, math.pi / 2
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if coverage(mid) < 0.95:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return math.sqrt(df) * math.tan(mid)


def _aggregate(values, quantile):
    """Sample mean and 95% half-width ``quantile * sd / sqrt(n)`` of ``values``.

    ``quantile`` is ``_t975(n - 1)``; the half-width is NaN for one value
    and 0.0 when all values agree.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    mean = float(np.mean(values))
    if n < 2:
        return mean, math.nan
    if np.all(values == values[0]):
        return mean, 0.0
    sd = float(np.std(values, ddof=1))
    return mean, quantile * sd / math.sqrt(n)


def cpd_study(x, k, seeds, max_iters=300, tol=1e-6, threads=None):
    """Run one CPD fit per seed and aggregate the metrics.

    Each metric gets its sample mean and 95% Student-t half-width; the
    quantile ``_t975(len(seeds) - 1)`` is computed once, in the package,
    and shared by all four.

    ``threads`` > 1 distributes the independent runs over a thread pool;
    results are identical to serial execution apart from wall-clock
    timings.  A failing run aborts the study, naming its seed.
    """
    x = as_tensor3(x)
    k = _check_level(k, min(x.shape), "rank")
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("seeds must be a non-empty sequence")
    if threads is not None and int(threads) > 1:
        # Each run gets its own copy of the caller's context, so numpy's
        # error state (np.errstate) holds in the workers as it does serially.
        contexts = [contextvars.copy_context() for _ in seeds]
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            results = tuple(
                pool.map(
                    lambda ctx, s: ctx.run(_study_run, x, k, s, max_iters, tol),
                    contexts,
                    seeds,
                )
            )
    else:
        results = tuple(_study_run(x, k, s, max_iters, tol) for s in seeds)
    runs = tuple(run for run, _ in results)
    unconverged = tuple(run[0] for run, converged in results if not converged)
    quantile = _t975(len(runs) - 1) if len(runs) > 1 else math.nan
    mean = {}
    halfwidth = {}
    for key in STUDY_METRIC_KEYS:
        mean[key], halfwidth[key] = _aggregate([row[key] for _, row in runs], quantile)
    return CpStudy(
        k=k,
        seeds=seeds,
        runs=runs,
        mean=mean,
        ci_halfwidth=halfwidth,
        unconverged=unconverged,
    )
