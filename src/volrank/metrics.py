"""Reconstruction quality metrics: MSE, PSNR, relative error, and the
percentage-of-energy-retained (PER) curve over qsigma coefficients.

MSE, PSNR and relative error take the squared residual, and relative
error ``||x||**2`` too, from one blocked pass that reads the
reconstruction block by block (:func:`volrank.tensor_core._residual`),
forms no volume-sized temporary and, like every volume sum, does not
depend on BLAS's thread count.  A reconstruction that is one matrix
product ``a @ b`` gives its blocks from slabs of rows of ``a``, so it is
scored without being formed (:func:`_product_score`).
"""

import math

import numpy as np

from .errors import DegenerateInputError, NumericError
from .tensor_core import (
    _blocks,
    _check_level,
    _check_pair,
    _normal,
    _product_blocks,
    _residual,
    frobenius_norm,
)

__all__ = [
    "mse",
    "per",
    "psnr",
    "rel_err",
    "score",
    "select_rank_by_per",
]


def mse(x, xhat):
    """Mean squared difference between ``x`` and ``xhat``.

    ``inf`` where the squared residual overflows float64, as it does for
    residuals above about 1e154, and 0.0 where the mean is below the
    smallest double.
    """
    x, xhat = _check_pair(x, xhat)
    return _residual(x, _blocks(xhat))[0] / x.size


def _norm(x, xhat, sq):
    """``||x - xhat||`` given its square ``sq``; only an ``sq`` that is not normal forms ``x - xhat``."""
    return math.sqrt(sq) if _normal(sq) else frobenius_norm(x - xhat)


def psnr(x, xhat):
    """Peak signal-to-noise ratio in dB, with peak taken from ``x``.

    ``10 * log10(max(x)**2 / mse)``; an exact reconstruction yields
    ``math.inf``.  Where ``max(x)**2`` or the mse overflows float64, or
    falls below its least normal value, both are rescaled by the largest
    residual magnitude, as :func:`volrank.tensor_core.frobenius_norm` does,
    so a residual whose squares underflow to 0.0 is not taken for exact.
    A non-positive peak leaves the ratio meaningless, and a ratio beyond
    float64 leaves it infinite or zero.
    """
    x, xhat = _check_pair(x, xhat)
    return _psnr(x, xhat, _residual(x, _blocks(xhat))[0])


def _psnr(x, xhat, sq):
    """PSNR of ``xhat`` as a reconstruction of ``x``, given ``sq = ||x - xhat||**2``."""
    peak = float(np.max(x))
    if peak <= 0.0:
        raise DegenerateInputError(
            f"psnr needs a positive peak in the reference volume, got max={peak}"
        )
    err = sq / x.size
    if _normal(peak * peak) and _normal(err):
        ratio = peak * peak / err
    else:
        # A square overflowed or underflowed, not necessarily the ratio.
        norm = _norm(x, xhat, sq)
        if norm == 0.0:
            return math.inf
        q = peak / norm
        ratio = x.size * q * q
    if not 0.0 < ratio < math.inf:
        raise NumericError(f"psnr is undefined for peak {peak} and mse {err}")
    return 10.0 * math.log10(ratio)


def rel_err(x, xhat):
    """Relative Frobenius error ``||x - xhat|| / frobenius_norm(x)``."""
    x, xhat = _check_pair(x, xhat)
    return _rel_err(x, xhat, *_residual(x, _blocks(xhat), with_norm=True))


def _rel_err(x, xhat, sq, normsq):
    """``||x - xhat|| / ||x||`` given their squares ``sq`` and ``normsq``; a zero ``x`` raises."""
    normx = math.sqrt(normsq) if _normal(normsq) else frobenius_norm(x)
    if normx == 0.0:
        raise DegenerateInputError("rel_err is undefined for a zero reference")
    return _norm(x, xhat, sq) / normx


def score(x, xhat, method, k, per=None, time_s=None):
    """Score ``xhat`` against ``x`` as one ``method``/``k`` CSV row.

    The row is a dict with the keys ``method, k, psnr_db, mse, rel_err,
    per, time_s``, in the ``metrics`` CSV's column order.  ``per`` is
    ``None`` for methods without a qsigma sequence, and ``psnr_db`` is
    ``math.inf`` for an exact reconstruction.  One pass over the residual
    gives all three errors, each bit for bit what :func:`psnr`,
    :func:`mse` and :func:`rel_err` return.
    """
    x, xhat = _check_pair(x, xhat)
    return _row(x, xhat, *_residual(x, _blocks(xhat), with_norm=True), method, k, per, time_s)


def _product_score(x, a, b, method, k, per=None, time_s=None):
    """``score(x, (a @ b).reshape(x.shape), method, k, per, time_s)``, bit for bit.

    The residual is summed from slabs of rows of ``a``
    (:func:`volrank.tensor_core._product_blocks`), so the product is
    formed only if the squared residual is not normal.
    """
    sq, normsq = _residual(x, _product_blocks(a, b), with_norm=True)
    xhat = None if _normal(sq) else (a @ b).reshape(x.shape)
    return _row(x, xhat, sq, normsq, method, k, per, time_s)


def _row(x, xhat, sq, normsq, method, k, per=None, time_s=None):
    """:func:`score`'s row from ``sq = ||x - xhat||**2`` and ``normsq = ||x||**2``.

    ``xhat`` is read only where ``sq`` is not normal.
    """
    return {
        "method": method,
        "k": k,
        "psnr_db": _psnr(x, xhat, sq),
        "mse": sq / x.size,
        "rel_err": _rel_err(x, xhat, sq, normsq),
        "per": per,
        "time_s": time_s,
    }


def _qsigma_cumulative(model):
    """Cumulative squared-qsigma energy; sequential so partials are monotone.

    Where the total is not normal, the qsigma are first divided by the
    largest magnitude, which leaves every ratio of partials to total.
    """
    with np.errstate(over="ignore"):  # an overflow is the total tested below
        energy = np.cumsum(model.qsigma**2)
    total = float(energy[-1])
    if not _normal(total):
        scale = float(np.max(np.abs(model.qsigma)))
        if 0.0 < scale < math.inf:
            energy = np.cumsum((model.qsigma / scale) ** 2)
            total = float(energy[-1])
    if total == 0.0:
        raise DegenerateInputError("per is undefined when all qsigma are zero")
    return energy, total


def per(model, k):
    """Fraction of qsigma energy captured by the first ``k`` coefficients.

    Coefficients are taken in index order with their signs squared away;
    ``per(model, model.rank)`` is exactly 1.0.
    """
    k = _check_level(k, model.rank)
    energy, total = _qsigma_cumulative(model)
    return float(energy[k - 1] / total)


def select_rank_by_per(model, threshold):
    """Smallest ``k`` whose PER meets ``threshold``; ties pick the smaller ``k``."""
    threshold = float(threshold)
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    energy, total = _qsigma_cumulative(model)
    reached = np.nonzero(energy / total >= threshold)[0]
    # PER(r) == 1.0 exactly, so the threshold is always reachable.
    return int(reached[0]) + 1
