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
    """Mean squared difference between ``x`` and ``xhat``."""
    x, xhat = _check_pair(x, xhat)
    d = (x - xhat).ravel()
    return float(np.dot(d, d)) / d.size


def psnr(x, xhat):
    """Peak signal-to-noise ratio in dB, with peak taken from ``x``.

    ``10 * log10(max(x)**2 / mse)``; an exact reconstruction yields
    ``math.inf``.  A non-positive peak leaves the ratio meaningless, and a
    peak or mse that overflows float64 leaves it infinite, zero or NaN.
    """
    x, xhat = _check_pair(x, xhat)
    return _psnr(x, mse(x, xhat))


def _psnr(x, err):
    """PSNR of a reconstruction of ``x`` whose mse is ``err``."""
    peak = float(np.max(x))
    if peak <= 0.0:
        raise DegenerateInputError(
            f"psnr needs a positive peak in the reference volume, got max={peak}"
        )
    if err == 0.0:
        return math.inf
    ratio = peak * peak / err
    if not 0.0 < ratio < math.inf:
        raise NumericError(f"psnr is undefined for peak {peak} and mse {err}")
    return 10.0 * math.log10(ratio)


def rel_err(x, xhat):
    """Relative Frobenius error ``||x - xhat|| / ||x||``."""
    x, xhat = _check_pair(x, xhat)
    normx = _reference_norm(x)
    return frobenius_norm(x - xhat) / normx


def _reference_norm(x):
    """``||x||``, the denominator of :func:`rel_err`; zero is degenerate."""
    normx = frobenius_norm(x)
    if normx == 0.0:
        raise DegenerateInputError("rel_err is undefined for a zero reference")
    return normx


def score(x, xhat, method, k, per=None, elapsed_seconds=None):
    """Score ``xhat`` against ``x`` as one ``method``/``k`` cell.

    One residual gives all three values, each bit for bit what
    :func:`psnr`, :func:`mse` and :func:`rel_err` return.
    """
    x, xhat = _check_pair(x, xhat)
    d = (x - xhat).ravel()
    sq = float(np.dot(d, d))
    err = sq / d.size
    return MetricsReport(
        method=method,
        k=k,
        psnr_db=_psnr(x, err),
        mse=err,
        rel_err=math.sqrt(sq) / _reference_norm(x),
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
    ``per(model, model.r)`` is exactly 1.0.
    """
    k = _check_level(k, model.r)
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
