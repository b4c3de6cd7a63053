"""Baseline decompositions and the seeded multi-run study protocol.

Two baselines are provided for comparison against the structured 3D SVD:

* Tucker via HOOI (higher-order orthogonal iteration): the truncated
  HOSVD from :func:`volrank.s3dsvd.decompose`, refined by sweeps until
  the relative-error improvement falls below tolerance.  A sweep shares
  its partial contractions between modes, so it makes two products with
  the full volume, not four, and frees them once its core is formed.
  Its relative error comes from the core's energy
  (:func:`volrank.s3dsvd._relerr`), so it forms no reconstruction unless
  the error is below 1e-2.  Both models share the s3dsvd expansion, its
  slab-by-slab scorer (:func:`volrank.s3dsvd._score`) and level check.
* CPD via ALS (alternating least squares) on a compressed volume
  (CANDELINC: Carroll, Pruzansky & Kruskal, Psychometrika 45(1), 1980;
  Bro & Andersson, Chemometr. Intell. Lab. Syst. 42, 1998).  A rank-``k``
  fit first takes ``h = decompose(x, rc)`` with ``rc = min(2 k,
  min(x.shape))`` and runs every sweep on the ``rc^3`` core ``G``, so it
  reads ``x`` a fixed number of times, not twice a sweep.  Its seeded
  start is drawn in ``x``'s space and projected onto the factors ``u_m``,
  and the model's factors are the core fit's mapped back through them.
  Each sweep normalizes the columns into non-negative weights, adds a
  ridge scaled to the Gram matrix when the normal equations are not
  numerically positive definite, and runs on numpy's BLAS and LAPACK
  alone.  Its MTTKRPs (the core summed against matching columns of two
  factors) contract the core one factor at a time (Phan, Tichavsky &
  Cichocki, IEEE TSP 2013) in a rank-major layout: two GEMMs on reshape
  views of the core per sweep, then one batched matrix-vector product per
  mode.  Its stopping error is the error on ``x``, ``sqrt(tail + ||G -
  Ghat||^2) / ||x||`` with ``tail = (||x|| - ||G||) (||x|| + ||G||)``,
  the second term from the Gram identity, so it builds no unfolding,
  Khatri-Rao matrix or reconstruction.

``cpd_study`` compresses once, from per-mode factors a sweep shares among
its methods, runs the ALS fit once per seed on that core and aggregates
each metric into a mean and a Student-t 95% confidence half-width,
optionally fanning the runs out over a thread pool; serial and threaded
execution produce identical numbers.  Each run's ``time_s`` is the whole
compression, factors included, plus its own ALS, the cost of a
standalone ``cpd_decompose``, and each run is scored without forming its
reconstruction.
"""

import contextvars
from dataclasses import dataclass
import math
import sys
import time

import numpy as np

from . import metrics
from .errors import DegenerateInputError, NumericError
from .s3dsvd import _bases, _relerr, _truncate, decompose, expand
from .tensor_core import (
    _check_finite_quiet,
    _check_level,
    _rank_one_operands,
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
    floating-point noise.  Each value is ``sqrt(1 - ||core||**2 /
    ||x||**2)``, in a form that cannot overflow (De Lathauwer, De Moor &
    Vandewalle, SIMAX 2000), and within about 1e-14 of the reconstruction's
    :func:`volrank.metrics.rel_err`; values below 1e-2, where that form
    loses digits, are the norm of the residual itself.  S3DM does not
    store it, so a model read from a file has the default, ``()``.
    """

    dims: tuple
    rank: int
    factors: tuple
    core: np.ndarray
    fit_history: tuple = ()


@dataclass(frozen=True)
class CpModel:
    """Rank-``rank`` CPD: unit-norm factor columns and non-negative weights.

    ``seed`` records the initialization so a fit can be reproduced
    bit for bit; ``ridge_applied`` flags that at least one least-squares
    step needed diagonal regularization.  ``fit_history`` holds the
    relative error on the fitted volume after each sweep, so it has
    ``iterations_run`` entries.  S3DM stores none of the fields after
    ``seed``, so a model read from a file has their defaults.
    """

    dims: tuple
    rank: int
    factors: tuple
    weights: np.ndarray
    seed: int
    iterations_run: int = 0
    converged: bool = False
    ridge_applied: bool = False
    fit_history: tuple = ()


@dataclass(frozen=True)
class CpStudy:
    """Aggregated multi-seed CPD runs.

    ``runs`` is a tuple of ``(seed, row)``, ``row`` being the run's
    :func:`volrank.metrics.score` row with its fit time as ``time_s``;
    ``mean`` and ``ci_halfwidth`` map each of ``STUDY_METRIC_KEYS`` to the
    sample mean and the 95% Student-t confidence half-width (NaN when
    only one seed was run, 0.0 when all runs agree exactly).
    ``unconverged`` holds, in run order, the seeds whose fit stopped at
    ``max_iters`` without converging, and ``fit_histories`` each run's
    :attr:`CpModel.fit_history`, in run order.
    """

    k: int
    seeds: tuple
    runs: tuple
    mean: dict
    ci_halfwidth: dict
    unconverged: tuple
    fit_histories: tuple


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
    return _hooi(x, decompose(x, k), max_iters, tol)


def _hooi(x, hosvd, max_iters=50, tol=1e-6):
    """HOOI at rank ``k = hosvd.rank`` on the float64 volume ``x``, from the HOSVD ``hosvd``.

    ``hosvd`` is ``decompose(x, k)``, or its equal cut from the volume's
    :func:`volrank.s3dsvd._bases` in a sweep, so the fit is
    ``tucker_decompose(x, k)``'s bit for bit.  Each ``fit_history`` value
    is :func:`volrank.s3dsvd._relerr` of the sweep's core, which forms no
    n^3 reconstruction above a relative error of 1e-2 and stays within
    about 1e-14 of the direct residual's there, so the stopping rule is
    the direct residual's unless a gain lies that close to ``tol``.
    """
    k, factors, core = hosvd.rank, hosvd.factors, hosvd.core
    normx = frobenius_norm(x)
    history = [_relerr(x, normx, core, factors, k)]
    for _ in range(max_iters):
        _, u2, u3 = factors
        u1 = mode_factor(mode_product(mode_product(x, u2.T, 2), u3.T, 3), 1, k)
        t1 = mode_product(x, u1.T, 1)
        u2 = mode_factor(mode_product(t1, u3.T, 3), 2, k)
        t12 = mode_product(t1, u2.T, 2)
        u3 = mode_factor(t12, 3, k)
        factors, core = (u1, u2, u3), mode_product(t12, u3.T, 3)
        del t1, t12  # not alive while the next sweep makes x x_2 u2^T
        history.append(_relerr(x, normx, core, factors, k))
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


def _fit_error(normx, normg, inner, weights, grams):
    """Relative error ``||x - xhat|| / ||x||`` of a Kruskal fit to the core ``g``.

    ``g`` is ``x`` projected onto orthonormal factors ``u_m`` and has norm
    ``normg``; ``ghat`` is the Kruskal sum of ``weights`` and factors
    ``f_m`` with Gram matrices ``grams``, ``inner`` is ``<g, ghat>``, and
    ``xhat`` is ``ghat`` mapped back through the ``u_m``.  ``x - xhat``
    splits into ``x``'s part outside the span of the ``u_m``, of squared
    norm ``tail = (||x|| - ||g||) (||x|| + ||g||)``, and ``g - ghat``
    inside it, so ``||x - xhat||^2 = tail + ||g - ghat||^2``.  The second
    term comes from the Gram identity ``||g||^2 - 2 <g, ghat> + w^T (G1 *
    G2 * G3) w``.  Either term can cancel to a tiny negative value for an
    exact fit, so each is clamped at 0.
    """
    g1, g2, g3 = grams
    tail = (normx - normg) * (normx + normg)
    sq = normg * normg - 2.0 * inner + weights @ (g1 * g2 * g3) @ weights
    return math.sqrt(max(tail, 0.0) + max(sq, 0.0)) / (normx if normx else 1.0)


def _check_seed(seed):
    """Return ``seed`` if a model file's u64 seed field holds it."""
    return _check_level(seed, 2**64 - 1, "seed", low=0)


def _check_seeds(seeds):
    """Return ``seeds`` as a tuple if non-empty and distinct, each passing :func:`_check_seed`.

    A repeated seed is a copy of one fit, which would shrink a study's
    confidence half-width without adding a run.
    """
    seeds = tuple(map(_check_seed, seeds))
    if not seeds:
        raise ValueError("seeds must be a non-empty sequence")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct, got {', '.join(map(str, seeds))}")
    return seeds


def cpd_decompose(x, k, seed, max_iters=300, tol=1e-6):
    """Fit a rank-``k`` CPD to ``x`` with seeded ALS on an s3dsvd core.

    ``x`` is first compressed to ``h = decompose(x, rc)`` with
    ``rc = min(2 k, min(x.shape))``, and ALS fits the ``rc^3`` core
    ``h.core`` (CANDELINC: Carroll, Pruzansky & Kruskal, Psychometrika
    45(1), 1980; Bro & Andersson, Chemometr. Intell. Lab. Syst. 42, 1998).
    Factors start as uniform [0, 1) draws in ``x``'s space from
    ``numpy.random.default_rng(seed)``, for an integer ``0 <= seed < 2**64``
    (a model file's u64), projected as ``u_m^T f_m``.  Each sweep solves
    the three normal-equation least-squares problems, then renormalizes
    factor columns into non-negative ``weights``.  Iteration stops when
    the change in relative error between sweeps falls below ``tol`` or
    after ``max_iters`` sweeps; the error is that of the mapped-back model
    on ``x``, from :func:`_fit_error`, and ``fit_history`` keeps it per
    sweep.  A normal-equation matrix that fails its Cholesky test or its
    LU solve gets a diagonal ridge of ``1e-12`` times its mean diagonal
    (``1e-12`` when that is zero), so success does not depend on the scale
    of ``x``, and the fit continues with ``ridge_applied`` set.  Where
    ``||x||^2`` is below the least normal double, the sweeps run on the core
    scaled by a power of two, which is exact, and the weights are scaled
    back, so the fit has the sweeps of the unscaled volume's.  The returned
    factors are ``u_m @ f_m``.

    The sweep holds each factor rank-major, shape ``(k, rc)``.  It makes
    two GEMMs on reshape views of the core: ``g3 = f3^T g_(3)``, shared by
    modes 1 and 2, and ``t = f1^T g_(1)`` after mode 1's update.  Each
    MTTKRP, in the same layout, is then one batched matrix-vector product
    of ``g3`` or ``t`` with the rows of another factor (Kolda & Bader, SIAM
    Review 2009, section 3), and ``numpy.linalg.solve`` takes it as it is.

    Raises
    ------
    TypeError, ValueError
        Before any fit, for a ``seed`` outside that range.
    NumericError
        If ``x`` is not finite, if a Gram matrix, an MTTKRP (the core
        summed against matching columns of the other two factors), an
        updated factor or the weights are not finite, as when ``x`` makes
        the normal equations overflow float64, or if LAPACK fails on the
        compression or on a normal-equation system even after the ridge.
    """
    x = as_tensor3(x)
    k = _check_level(k, min(x.shape), "rank")
    seed = _check_seed(seed)
    return _cpd_als(*_compress(x, _bases(x), k), k, seed, max_iters, tol)


def _compress(x, bases, k):
    """The s3dsvd model whose core a rank-``k`` ALS fits, cut from ``_bases(x)``, and ``||x||``."""
    return _truncate(x, bases, min(2 * k, min(x.shape))), frobenius_norm(x)


def _cpd_als(hosvd, normx, k, seed, max_iters, tol):
    """:func:`cpd_decompose`'s ALS on ``hosvd.core``, for ``x`` of norm ``normx``."""
    g, us = hosvd.core, hosvd.factors
    # Where ||x||^2 is below the least normal double, the Grams, the column
    # norms and _fit_error's squares underflow.  The sweeps then run on g
    # scaled by 2^-e, which is exact, and the weights are scaled back.
    e = 0
    if 0.0 < normx and normx * normx < sys.float_info.min:
        e = math.frexp(normx)[1]
        g, normx = np.ldexp(g, -e), math.ldexp(normx, -e)
    r1, r2, r3 = g.shape
    rng = np.random.default_rng(seed)
    # Rank-major factors: row r of ft[m] is column r of mode m + 1's core factor.
    ft = [np.ascontiguousarray((u.T @ rng.random((n, k))).T) for u, n in zip(us, hosvd.dims)]
    # Both GEMMs read g in place: g_12_3 is the transposed (r1 r2, r3) view.
    g_12_3, g_1_23 = g.reshape(r1 * r2, r3).T, g.reshape(r1, r2 * r3)
    weights = np.ones(k)
    normg = frobenius_norm(g)
    ridge_applied = False
    converged = False
    history = []
    grams = [None, ft[1] @ ft[1].T, ft[2] @ ft[2].T]
    # Entered once per fit; every step is judged by a finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iters):
            # Modes 1 and 2 share g3[r] = g x_3 f3[:, r], as f3 changes only in mode 3.
            g3 = (ft[2] @ g_12_3).reshape(k, r1, r2)
            for mode in range(3):
                lo, hi = [grams[m] for m in range(3) if m != mode]
                gram = hi * lo
                # Each MTTKRP is one batched matvec: slice r of g3 or t times row r of a factor.
                if mode == 0:
                    mttkrp = g3 @ ft[1][:, :, None]
                elif mode == 1:
                    mttkrp = ft[0][:, None, :] @ g3
                else:
                    t = (ft[0] @ g_1_23).reshape(k, r2, r3)
                    mttkrp = ft[1][:, None, :] @ t
                mttkrp = mttkrp.reshape(k, -1)
                _check_finite_quiet(gram, f"ALS mode-{mode + 1} Gram matrix")
                # Checked as (rc, k), so a reported flat index is the model's layout.
                _check_finite_quiet(mttkrp.T, f"ALS mode-{mode + 1} MTTKRP")
                try:
                    # Cholesky is only the positive-definiteness test here.  A
                    # matrix that passes it by rounding can still give the LU
                    # solve an exact zero pivot, so either failure takes the ridge.
                    try:
                        np.linalg.cholesky(gram)
                        ft[mode] = np.linalg.solve(gram, mttkrp)
                    except np.linalg.LinAlgError:
                        # Scaled to the mean diagonal, so it does not vanish for a large x.
                        gram = gram + 1e-12 * (np.trace(gram) / k or 1.0) * np.eye(k)
                        ridge_applied = True
                        np.linalg.cholesky(gram)
                        ft[mode] = np.linalg.solve(gram, mttkrp)
                except np.linalg.LinAlgError as exc:
                    raise NumericError(f"ALS mode-{mode + 1} normal equations: {exc}") from exc
                _check_finite_quiet(ft[mode].T, f"ALS mode-{mode + 1} factor")
                if mode < 2:
                    grams[mode] = ft[mode] @ ft[mode].T
            # <g, ghat> from the last mode's MTTKRP, before normalization.
            inner = float((ft[2] * mttkrp).sum())
            # numpy.linalg.norm's own sum for axis=1, without its per-call checks.
            norms = [np.sqrt(np.add.reduce(f * f, axis=1)) for f in ft]
            weights = norms[0] * norms[1] * norms[2]
            _check_finite_quiet(weights, "ALS weights")
            for f, n in zip(ft, norms):
                f /= np.where(n == 0.0, 1.0, n)[:, None]
            # The next sweep starts from these Grams of the normalized factors.
            grams = [f @ f.T for f in ft]
            history.append(_fit_error(normx, normg, inner, weights, grams))
            if len(history) > 1 and abs(history[-2] - history[-1]) < tol:
                converged = True
                break
    return CpModel(
        dims=hosvd.dims,
        rank=k,
        factors=tuple(u @ f.T for u, f in zip(us, ft)),
        weights=np.ldexp(weights, e),
        seed=seed,
        iterations_run=len(history),
        converged=converged,
        ridge_applied=ridge_applied,
        fit_history=tuple(history),
    )


def cpd_reconstruct(model):
    """Sum of the model's weighted rank-one terms, as a C-contiguous volume.

    The Kruskal sum is one GEMM (:func:`volrank.tensor_core._rank_one_sum`),
    so metrics and :func:`volrank.volume_io.write_volume` use the result
    without a strided copy.
    """
    return _rank_one_sum(model.weights, *model.factors)


def _score_run(x, model, k, time_s):
    """``metrics.score(x, cpd_reconstruct(model), "cpd", k, time_s=time_s)``, bit for bit.

    The residual is summed from slabs of the Kruskal sum's GEMM
    (:func:`volrank.metrics._product_score`), so no reconstruction is
    formed unless the squared residual overflows.
    """
    operands = _rank_one_operands(model.weights, *model.factors)
    return metrics._product_score(x, *operands, "cpd", k, time_s=time_s)


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

    ``x`` is compressed once, as :func:`cpd_decompose` compresses it, and
    every seed's ALS fits that one core; a sweep hands :func:`_study` the
    per-mode factors it shares among its methods.  Each run's ``time_s`` is
    the whole compression time, factors included, plus its own ALS time,
    what a standalone :func:`cpd_decompose` costs, and its row is
    :func:`_score_run`'s, the score of its reconstruction bit for bit
    without that volume.  Each metric gets its sample mean and 95%
    Student-t half-width; the quantile ``_t975(len(seeds) - 1)`` is
    computed once, in the package, and shared by all four.

    ``threads`` > 1 distributes the independent runs over a thread pool;
    results are identical to serial execution apart from wall-clock
    timings.  Before the compression, :func:`_check_seeds` refuses an
    empty or repeated seed list and any seed :func:`cpd_decompose` would
    refuse.  A failing run aborts the study, naming its seed.
    """
    x = as_tensor3(x)
    k = _check_level(k, min(x.shape), "rank")
    seeds = _check_seeds(seeds)
    start = time.perf_counter()
    bases = _bases(x)
    return _study(x, bases, time.perf_counter() - start, k, seeds, max_iters, tol, threads)


def _study(x, bases, bases_s, k, seeds, max_iters=300, tol=1e-6, threads=None):
    """:func:`cpd_study`'s fits, from ``bases = _bases(x)``, which took ``bases_s`` to compute."""
    start = time.perf_counter()
    hosvd, normx = _compress(x, bases, k)
    compress_s = bases_s + (time.perf_counter() - start)

    def fit(seed):
        # Relabel numeric failures only; a bug such as a TypeError propagates.
        try:
            start = time.perf_counter()
            model = _cpd_als(hosvd, normx, k, seed, max_iters, tol)
            row = _score_run(x, model, k, compress_s + (time.perf_counter() - start))
        except (ArithmeticError, DegenerateInputError) as exc:
            raise NumericError(f"cpd study run failed for seed {seed}: {exc}") from exc
        return (seed, row), model

    if threads is not None and int(threads) > 1:
        from concurrent.futures import ThreadPoolExecutor  # kept off the CLI's start-up path

        # Each run gets its own copy of the caller's context, so numpy's
        # error state (np.errstate) holds in the workers as it does serially.
        contexts = [contextvars.copy_context() for _ in seeds]
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            results = tuple(pool.map(lambda ctx, s: ctx.run(fit, s), contexts, seeds))
    else:
        results = tuple(map(fit, seeds))
    runs = tuple(run for run, _ in results)
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
        unconverged=tuple(seed for (seed, _), model in results if not model.converged),
        fit_histories=tuple(model.fit_history for _, model in results),
    )
