"""Structured 3D SVD: orthogonal per-mode factors, a dense core, and a
signed quasi-singular coefficient sequence for progressive reconstruction.

The decomposition keeps the ``r`` leading left singular vectors of each
unfolding, taken from the SVD of the small triangular factor of a QR of
the unfolding's transpose (:func:`volrank.tensor_core.mode_factor`),
contracts the input against them to obtain an ``r x r x r`` core ``g``,
and reads the signed core diagonal ``qsigma[i] = g[i, i, i]`` in index
order (no re-sorting; magnitudes are usually but not always
non-increasing, see :func:`ordering_report`).

Truncated reconstruction at level ``k`` uses the leading ``k`` columns of
each factor and the leading ``k x k x k`` core block; the diagonal
expansion uses only the ``k`` leading rank-one terms weighted by
``qsigma``.  Both are orthogonal projections of the input, so their
errors are monotone non-increasing in ``k``.
"""

from dataclasses import dataclass

import numpy as np

from . import metrics
from .tensor_core import (
    _check_finite,
    _check_level,
    _rank_one_sum,
    as_tensor3,
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
    """Structured 3D SVD of a volume.

    Attributes
    ----------
    dims : tuple of int
        Shape of the decomposed volume.
    r : int
        Number of retained columns per mode, ``1 <= r <= min(dims)``.
    factors : tuple of ndarray
        Per-mode factors ``(u1, u2, u3)``; ``u_m`` is ``dims[m-1] x r``
        with orthonormal columns.
    core : ndarray
        Dense ``r x r x r`` core tensor.
    qsigma : ndarray
        Signed quasi-singular coefficients, ``qsigma[i] == core[i, i, i]``
        exactly, kept in index order.

    Instances are frozen; treat the arrays as read-only.
    """

    dims: tuple
    r: int
    factors: tuple
    core: np.ndarray
    qsigma: np.ndarray


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
    _check_finite(x, "input tensor")
    factors = tuple(mode_factor(x, mode, r) for mode in (1, 2, 3))
    core = contract(x, factors)
    qsigma = np.einsum("iii->i", core).copy()
    return S3dModel(dims=x.shape, r=r, factors=factors, core=core, qsigma=qsigma)


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
    """Expand the leading ``k x k x k`` block of ``core`` through ``u_m[:, :k]``."""
    xk = np.ascontiguousarray(core[:k, :k, :k])
    for mode, u in enumerate(factors, start=1):
        xk = mode_product(xk, u[:, :k], mode)
    return xk


def reconstruct(model, k):
    """Truncated reconstruction from the leading ``k`` levels of ``model``."""
    return expand(model.core, model.factors, _check_level(k, model.r))


def diagonal_expansion(model, k):
    """Sum of the ``k`` leading qsigma-weighted rank-one terms.

    Uses only the diagonal of the core, so it is generally a coarser
    approximation than :func:`reconstruct` at the same ``k``.
    """
    k = _check_level(k, model.r)
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
    for i in range(model.r):
        violation = i + 1 < model.r and mags[i] < mags[i + 1]
        report.append((i, float(mags[i]), bool(violation)))
    return report
