"""Structured 3D SVD: orthogonal per-mode factors, a dense core, and a
signed quasi-singular coefficient sequence for progressive reconstruction.

The decomposition keeps the ``r`` leading left singular vectors of each
unfolding, taken from the SVD of the small triangular factor of a QR of
the unfolding's transpose (:func:`volrank.tensor_core.mode_factor`).
That QR is a blocked TSQR over row blocks of at least 1,024 rows, fixed
by the shape alone (Demmel, Grigori, Hoemmen & Langou, SISC 34(1),
2012), each block a LAPACK ``dgeqrt`` from numpy's bundled OpenBLAS, or
``np.linalg.qr`` without that library; it and the SVD run on one
OpenBLAS thread, so a model's bytes do not depend on the thread count.
The input is contracted against the factors to obtain an ``r x r x r``
core ``g``, and the signed core diagonal ``qsigma[i] = g[i, i, i]`` is
read in index order (no re-sorting; magnitudes are usually but not
always non-increasing, see :func:`ordering_report`).

Truncated reconstruction at level ``k`` uses the leading ``k`` columns of
each factor and the leading ``k x k x k`` core block; the diagonal
expansion uses only the ``k`` leading rank-one terms weighted by
``qsigma``.  Both are orthogonal projections of the input, so their
errors are monotone non-increasing in ``k``.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import metrics
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
    "S3dModel",
    "decompose",
    "diagonal_expansion",
    "epsilon_r",
    "ordering_report",
    "reconstruct",
]


@dataclass(frozen=True)
class S3dModel:
    """Structured 3D SVD of a volume: orthonormal factors and a dense core.

    The fields are :class:`volrank.baselines.TuckerModel`'s without its
    fit history; the model is the truncated HOSVD (De Lathauwer, De Moor &
    Vandewalle, SIMAX 2000).

    Attributes
    ----------
    dims : tuple of int
        Shape of the decomposed volume.
    rank : int
        Number of retained columns per mode, ``1 <= rank <= min(dims)``.
    factors : tuple of ndarray
        Per-mode factors ``(u1, u2, u3)``; ``u_m`` is ``dims[m-1] x rank``
        with orthonormal columns.
    core : ndarray
        Dense ``rank x rank x rank`` core tensor.

    Instances are frozen; treat the arrays as read-only.
    """

    dims: tuple
    rank: int
    factors: tuple
    core: np.ndarray

    @property
    def qsigma(self):
        """Signed quasi-singular coefficients: the core diagonal, in index order.

        A view of ``core``, so the two cannot disagree.
        """
        return np.einsum("iii->i", self.core)


def decompose(x, r):
    """Decompose ``x`` at rank ``r``.

    Parameters
    ----------
    x : ndarray
        Third-order volume; must be finite.
    r : int
        Retained rank per mode, ``1 <= r <= min(x.shape)``.
    """
    x = as_tensor3(x)
    r = _check_level(r, min(x.shape), "r")
    # Cut before the contraction, so the bases are freed first: held through
    # it, they left glibc's heap about 4 MB larger for later volume-sized work.
    return _truncate(x, [u[:, :r].copy() for u in _bases(x)], r)


def _bases(x):
    """``mode_factor(x, m, min(x.shape))`` per mode; each rank's factors are their prefixes."""
    _check_finite(x, "input tensor")
    return tuple(mode_factor(x, mode, min(x.shape)) for mode in (1, 2, 3))


def _truncate(x, bases, r):
    """``decompose(x, r)`` from ``bases``, at least the leading ``r`` columns of ``_bases(x)``."""
    factors = tuple(u[:, :r].copy() for u in bases)
    return S3dModel(dims=x.shape, rank=r, factors=factors, core=contract(x, factors))


def contract(x, factors):
    """Core of ``x`` against orthonormal ``factors``: ``x`` times each ``u_m^T``.

    Raises
    ------
    NumericError
        If the contraction overflows, which a finite but huge ``x`` can do.
    """
    core = x
    for mode, u in enumerate(factors, start=1):
        core = mode_product(core, u.T, mode)
    _check_finite(core, "core")
    return core


def expand(core, factors, k):
    """Expand the leading ``k x k x k`` block of ``core`` through ``u_m[:, :k]``.

    The last mode product is one GEMM of :func:`_expansion_operands`, whose
    output is already in C order.
    """
    a, b = _expansion_operands(core, factors, k)
    return (a @ b).reshape(*(len(u) for u in factors))


def _expansion_operands(core, factors, k):
    """``(a, b)`` whose product is :func:`expand` as an ``(n1 n2) x n3`` matrix.

    ``a`` is ``core[:k, :k, :k]`` times ``u1[:, :k]`` and ``u2[:, :k]``,
    viewed as ``(n1 n2) x k``, and ``b`` is ``u3[:, :k]^T`` (Kolda & Bader,
    SIAM Review 51(3), 2009, section 2.5).
    """
    u1, u2, u3 = (u[:, :k] for u in factors)
    xk = mode_product(np.ascontiguousarray(core[:k, :k, :k]), u1, 1)
    return mode_product(xk, u2, 2).reshape(-1, k), u3.T


def _score(x, core, factors, k, method, per=None, time_s=None):
    """``metrics.score(x, expand(core, factors, k), method, k, per, time_s)``, bit for bit.

    The residual is summed from slabs of the expansion's last mode product
    (:func:`volrank.metrics._product_score`), so the volume is formed only
    if the squared residual overflows.
    """
    operands = _expansion_operands(core, factors, k)
    return metrics._product_score(x, *operands, method, k, per, time_s)


def _relerr(x, normx, core, factors, k):
    """``||x - expand(core, factors, k)|| / normx`` for a projection ``core``.

    ``normx`` is ``frobenius_norm(x)``, and ``core[:k, :k, :k]`` must be
    ``x`` contracted against ``u_m[:, :k]`` for orthonormal ``factors``.
    Then ``||x - xhat||**2 = ||x||**2 - ||core||**2`` (De Lathauwer, De
    Moor & Vandewalle, SIMAX 21(4), 2000; Kolda & Bader, SIAM Review
    51(3), 2009, section 4.2), taken in the scale-free form
    ``sqrt((1 - rho) * (1 + rho))`` with ``rho = ||core|| / normx``, which
    squares neither norm and so cannot overflow.  Rounding in ``rho``
    costs that form about 1e-15 divided by the error, so it is used only
    for errors of at least 1e-2 (squares of at least 1e-4), where it stays
    within about 1e-14.  Below that, and where ``rho`` is not finite, the
    residual is formed and its norm taken directly.
    """
    if normx == 0.0:
        return 0.0
    rho = frobenius_norm(core[:k, :k, :k]) / normx
    gap = (1.0 - rho) * (1.0 + rho)
    if gap >= 1e-4:
        return math.sqrt(gap)
    return frobenius_norm(x - expand(core, factors, k)) / normx


def reconstruct(model, k):
    """Truncated reconstruction from the leading ``k`` levels of ``model``."""
    return expand(model.core, model.factors, _check_level(k, model.rank))


def diagonal_expansion(model, k):
    """Sum of the ``k`` leading qsigma-weighted rank-one terms.

    Uses only the diagonal of the core, so it is generally a coarser
    approximation than :func:`reconstruct` at the same ``k``.  The sum is
    one GEMM (:func:`volrank.tensor_core._rank_one_sum`) and comes back
    C-contiguous, as every returned volume does.
    """
    k = _check_level(k, model.rank)
    return _rank_one_sum(model.qsigma[:k], *(u[:, :k] for u in model.factors))


def epsilon_r(model, x, k):
    """Relative energy shortfall of the ``k``-term diagonal expansion.

    Equals ``sqrt(1 - sum(qsigma[:k]**2) / ||x||**2)``, because the
    expansion is an orthogonal projection, but is computed as the
    expansion's :func:`volrank.metrics.rel_err`: the energy form cancels,
    and its square root turns one ulp into about 1e-8.
    """
    return metrics.rel_err(x, diagonal_expansion(model, k))


def ordering_report(model):
    """Per-index magnitude report for the qsigma sequence.

    Returns a list of ``(index, magnitude, is_violation)`` tuples where
    ``is_violation`` flags positions ``i`` with
    ``|qsigma[i]| < |qsigma[i+1]|``; the last position is never flagged.
    """
    mags = np.abs(model.qsigma)
    report = []
    for i in range(model.rank):
        violation = i + 1 < model.rank and mags[i] < mags[i + 1]
        report.append((i, float(mags[i]), bool(violation)))
    return report
