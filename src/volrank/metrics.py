"""Reconstruction quality metrics: MSE, PSNR, relative error, and the
percentage-of-energy-retained (PER) curve over qsigma coefficients.
"""

from dataclasses import dataclass
import math
from typing import Optional

import numpy as np

from .errors import DegenerateInputError, NumericError
from .tensor_core import _check_level, _check_pair, frobenius_norm

__all__ = [
    "MetricsReport",
    "mse",
    "per",
    "psnr",
    "rel_err",
    "score",
    "select_rank_by_per",
]


@dataclass(frozen=True)
class MetricsReport:
    """One method/k cell of a benchmark table.

    ``per`` is ``None`` for methods without a qsigma sequence;
    ``psnr_db`` is ``math.inf`` when the reconstruction is exact.
    """

    method: str
    k: int
    psnr_db: float
    mse: float
    rel_err: float
    per: Optional[float] = None
    elapsed_seconds: Optional[float] = None


def mse(x, xhat):
    """Mean squared difference between ``x`` and ``xhat``.

    ``inf`` where the squared residual overflows float64, as it does for
    residuals above about 1e154.
    """
    x, xhat = _check_pair(x, xhat)
    d, sq = _residual(x, xhat)
    return sq / d.size


def _residual(x, xhat):
    """``d = x - xhat`` and ``sq = ||d||**2``, which is ``inf`` if it overflows."""
    d = x - xhat
    with np.errstate(over="ignore"):  # an overflow is the inf its callers test
        sq = float(np.dot(d.ravel(), d.ravel()))
    return d, sq


def psnr(x, xhat):
    """Peak signal-to-noise ratio in dB, with peak taken from ``x``.

    ``10 * log10(max(x)**2 / mse)``; an exact reconstruction yields
    ``math.inf``.  Where ``max(x)**2`` or the mse overflows float64, both
    are rescaled by the largest residual magnitude, as
    :func:`volrank.tensor_core.frobenius_norm` does.  A non-positive peak
    leaves the ratio meaningless, and a ratio beyond float64 leaves it
    infinite or zero.
    """
    x, xhat = _check_pair(x, xhat)
    return _psnr(x, *_residual(x, xhat))


def _psnr(x, d, sq):
    """PSNR of a reconstruction of ``x`` with residual ``d`` and ``sq = ||d||**2``."""
    peak = float(np.max(x))
    if peak <= 0.0:
        raise DegenerateInputError(
            f"psnr needs a positive peak in the reference volume, got max={peak}"
        )
    if sq == 0.0:
        return math.inf
    err = sq / d.size
    ratio = peak * peak / err
    if math.isinf(peak * peak) or math.isinf(err):
        # A square overflowed, not necessarily the ratio.
        q = peak / frobenius_norm(d)
        ratio = d.size * q * q
    if not 0.0 < ratio < math.inf:
        raise NumericError(f"psnr is undefined for peak {peak} and mse {err}")
    return 10.0 * math.log10(ratio)


def rel_err(x, xhat):
    """Relative Frobenius error ``||x - xhat|| / ||x||``."""
    x, xhat = _check_pair(x, xhat)
    return _rel_err(x, *_residual(x, xhat))


def _rel_err(x, d, sq):
    """``||d|| / ||x||`` for residual ``d``, ``sq = ||d||**2``; a zero ``x`` raises."""
    normx = frobenius_norm(x)
    if normx == 0.0:
        raise DegenerateInputError("rel_err is undefined for a zero reference")
    return (math.sqrt(sq) if sq < math.inf else frobenius_norm(d)) / normx


def score(x, xhat, method, k, per=None, elapsed_seconds=None):
    """Score ``xhat`` against ``x`` as one ``method``/``k`` cell.

    One residual gives all three values, each bit for bit what
    :func:`psnr`, :func:`mse` and :func:`rel_err` return.
    """
    x, xhat = _check_pair(x, xhat)
    d, sq = _residual(x, xhat)
    return MetricsReport(
        method=method,
        k=k,
        psnr_db=_psnr(x, d, sq),
        mse=sq / d.size,
        rel_err=_rel_err(x, d, sq),
        per=per,
        elapsed_seconds=elapsed_seconds,
    )


def _qsigma_cumulative(model):
    """Cumulative squared-qsigma energy; sequential so partials are monotone."""
    energy = np.cumsum(model.qsigma**2)
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
