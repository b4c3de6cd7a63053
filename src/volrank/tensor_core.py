"""Dense third-order tensor primitives: unfolding, mode products, SVD, and
per-mode factors.

Conventions used throughout the package:

* A volume is a C-contiguous float64 ndarray of shape ``(n1, n2, n3)``,
  so the third index varies fastest in memory.  Every volume the package
  returns is one, so :func:`as_tensor3` hands it back without a copy.
* Modes are numbered 1..3 to match the usual tensor literature.
* ``unfold(x, m)`` arranges mode-m fibers as columns of an
  ``n_m x (prod of the other dims)`` matrix, with the lower-numbered
  remaining mode varying fastest across columns.  It is a reference
  definition that no fit calls.  For a 2x2x2 tensor with entries
  ``x[i, j, k] = 4i + 2j + k`` the mode-1 unfolding is::

      [[0, 2, 1, 3],
       [4, 6, 5, 7]]

* SVD factor signs are normalized so the largest-magnitude entry of each
  left singular vector is positive (ties broken by the first maximum),
  with the sign change compensated in the right factor.  This keeps
  decompositions reproducible run to run.
* A per-mode factor (:func:`mode_factor`) holds the leading left
  singular vectors of an unfolding.  A wide unfolding ``A`` is first
  reduced by QR, ``A^T = QR``; ``A = R^T Q^T`` shares its left singular
  vectors with the small square ``R^T``, so only that triangular factor
  goes through :func:`svd` (T. F. Chan, ACM TOMS 8(1), 1982).  ``R``
  comes from a blocked TSQR: ``R`` of a tall matrix is ``R`` of the
  stacked ``R``s of its row blocks (Demmel, Grigori, Hoemmen & Langou,
  SISC 34(1), 2012).  A block is whole slabs of the volume holding at
  least ``max(1024, 2 n)`` rows, and the block ``R``s are merged by the
  same rule until one remains, so the tree depends on the shape alone.
  Each block QR and merge is LAPACK's recursive blocked QR, ``dgeqrt``
  (Elmroth & Gustavson, IBM J. Res. Dev. 44(4), 2000), which numpy's
  bundled OpenBLAS exports and :func:`_qr_r` calls through ``ctypes``;
  without that library it is ``np.linalg.qr``.  Every QR and SVD of a
  factor runs on one thread of that OpenBLAS, also set through
  ``ctypes``, so a factor's bits do not depend on the thread count; the
  matrix products stay threaded.
* :func:`mode_product` writes its result in C order with no transpose
  copy, as one matrix product per mode.
* The Kruskal sum of weighted rank-one terms, which serves CPD models,
  the s3dsvd diagonal expansion and the synthetic volumes, is one GEMM
  whose output is already in C order.
* Every sum over a volume, in :func:`inner_product`, :func:`frobenius_norm`
  and the metrics, adds one ``np.dot`` per ``_BLOCK``-entry block in index
  order.  No dot is long enough for BLAS to thread, so no sum's bits
  depend on the thread count.  The residual pass (:func:`_residual`)
  reads the reconstruction in such blocks, so a product ``a @ b``, the
  Kruskal GEMM or an orthogonal expansion's last mode product, is scored
  from slabs of rows of ``a`` (:func:`_product_blocks`), never formed.
"""

from dataclasses import dataclass
import ctypes
import functools
import itertools
import math
import operator
import os
import sys
import threading

import numpy as np

from .errors import NumericError, ShapeError

__all__ = [
    "SvdResult",
    "as_tensor3",
    "frobenius_norm",
    "inner_product",
    "mode_product",
    "outer3",
    "svd",
    "unfold",
]


def as_tensor3(data):
    """Coerce ``data`` to a C-contiguous float64 array of rank 3.

    Raises
    ------
    ShapeError
        If the input does not have exactly three axes or any axis is empty.
    """
    x = np.ascontiguousarray(data, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected a third-order tensor, got ndim={x.ndim}")
    if min(x.shape) < 1:
        raise ShapeError(f"all dimensions must be positive, got {x.shape}")
    return x


def _check_mode(mode):
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2, or 3, got {mode!r}")


def _check_level(v, n, what="k", low=1):
    """Return ``v`` if ``low <= v <= n``; a float or string is a ``TypeError``."""
    try:
        v = operator.index(v)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {v!r}") from None
    if not low <= v <= n:
        raise ValueError(f"{what} must satisfy {low} <= {what} <= {n}, got {v}")
    return v


def _check_finite(a, what):
    """Raise :class:`NumericError` naming ``a``'s first non-finite value in C order.

    One sum decides the common case without an ``a``-sized mask: a finite
    sum proves every value finite.  The mask is built only when the sum
    is not finite, from a NaN or inf or from finite values that overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # judged just below
        _check_finite_quiet(a, what)


def _check_finite_quiet(a, what):
    """:func:`_check_finite` for a caller already in its ``np.errstate``.

    A loop that checks every step enters that state once, not once a check.
    """
    if math.isfinite(a.sum()):
        return
    finite = np.isfinite(a)
    if not finite.all():
        index = int(np.flatnonzero(~finite.ravel())[0])
        raise NumericError(f"{what} contains a non-finite value at flat index {index}")


def _check_pair(a, b):
    a = as_tensor3(a)
    b = as_tensor3(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


# Entries per block of a sum over a volume: 64 KB of float64 stays in cache,
# and each np.dot stays below OpenBLAS's threading cutoff of 10,000 entries.
_BLOCK = 8192


def _slabs(a, step):
    """``step``-long slices of ``a`` along its first axis, in index order."""
    return (a[i : i + step] for i in range(0, len(a), step))


def _blocks(a):
    """``_BLOCK``-entry blocks of raveled ``a``, in index order."""
    return _slabs(a.ravel(), _BLOCK)


def _residual(x, blocks, with_norm=False):
    """``(||x - xhat||**2, ||x||**2)``, the second only ``with_norm`` (else 0.0).

    ``blocks`` are ``xhat``'s ``_BLOCK``-entry blocks in index order:
    :func:`_blocks` of a formed volume, or :func:`_product_blocks` of a
    product that is never formed.  Each block of ``x - xhat`` is
    subtracted into one scratch buffer, so no volume-sized array is
    formed.  ``||x||**2`` adds the dots :func:`frobenius_norm` adds; an
    overflowed sum is ``inf``.
    """
    buf = np.empty(min(x.size, _BLOCK))
    sq = normsq = 0.0
    with np.errstate(over="ignore"):  # an overflow is the inf its callers test
        for u, v in zip(_blocks(x), blocks):
            d = np.subtract(u, v, out=buf[: u.size])
            sq += float(np.dot(d, d))
            if with_norm:
                normsq += float(np.dot(u, u))
    return sq, normsq


def inner_product(a, b):
    """Frobenius inner product of two tensors of identical shape, summed over :func:`_blocks`."""
    a, b = _check_pair(a, b)
    total = 0.0
    for u, v in zip(_blocks(a), _blocks(b)):
        total += float(np.dot(u, v))
    return total


def _normal(total):
    """Whether a sum of squares ``total`` is finite and no smaller than the least normal double.

    Outside that range the sum has overflowed, or its squares have lost
    digits to underflow (a nonzero volume can sum to 0.0), so its callers
    rescale by the largest magnitude; inside it no caller changes a bit.
    """
    return sys.float_info.min <= total < math.inf


def frobenius_norm(a):
    """Frobenius norm ``sqrt(inner_product(a, a))``, rescaled if that sum is not :func:`_normal`."""
    with np.errstate(over="ignore"):  # an overflow is the inf tested below
        sq = inner_product(a, a)
    if not _normal(sq):
        scale = float(np.max(np.abs(a)))
        if 0.0 < scale < math.inf:
            return scale * frobenius_norm(np.divide(a, scale))
    return math.sqrt(sq)


def outer3(u, v, w):
    """Rank-one tensor ``T[i, j, k] = u[i] * v[j] * w[k]``."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    for name, vec in (("u", u), ("v", v), ("w", w)):
        if vec.ndim != 1 or vec.size == 0:
            raise ShapeError(f"{name} must be a non-empty vector, got shape {vec.shape}")
    return np.einsum("i,j,k->ijk", u, v, w)


def _rank_one_sum(weights, u1, u2, u3):
    """Kruskal sum ``sum_r weights[r] * outer3(u1[:, r], u2[:, r], u3[:, r])``.

    One GEMM (Kolda & Bader, SIAM Review 51(3), 2009, section 3.1) of
    :func:`_rank_one_operands`: the weighted ``u1`` times the
    ``r x (n2 n3)`` Khatri-Rao rows ``kr[r, j * n3 + k] = u2[j, r] *
    u3[k, r]``, which is the mode-1 unfolding of the sum with the columns
    in C order.  The result is a C-contiguous ``(n1, n2, n3)`` array, so
    nothing downstream copies it.
    """
    a, kr = _rank_one_operands(weights, u1, u2, u3)
    return (a @ kr).reshape(len(u1), len(u2), len(u3))


def _rank_one_operands(weights, u1, u2, u3):
    """``(u1 * weights, kr)``, whose product is the ``n1 x (n2 n3)`` :func:`_rank_one_sum`."""
    kr = (u2.T[:, :, None] * u3.T[:, None, :]).reshape(u2.shape[1], -1)
    return u1 * weights, kr


def _product_blocks(a, b):
    """``(a @ b).ravel()`` cut as :func:`_blocks` cuts it, without the product.

    Each slab of whole rows of ``a`` is the GEMM with ``a`` restricted to
    those rows, and numpy's OpenBLAS sums each entry of it as it does in
    the whole product, so the blocks match bit for bit.  A slab holds
    about 8 blocks, or the whole product if that is smaller, and never
    one row alone: a one-row product takes BLAS's matrix-vector path,
    whose sums differ.  Where a whole number of blocks fits in such a
    slab, a slab is the most whole blocks that fit (5 for rows of 160
    entries), so no block straddles two slabs and none is copied.
    """
    n = len(a)
    step = max(2, -(-8 * _BLOCK // b.shape[1]))
    unit = _BLOCK // math.gcd(_BLOCK, b.shape[1])
    if unit <= step:
        step -= step % unit
    starts = list(range(0, n, step))
    if len(starts) > 1 and starts[-1] == n - 1:
        starts.pop()
    rest = np.empty(0)
    for i0, i1 in zip(starts, starts[1:] + [n]):
        flat = (a[i0:i1] @ b).ravel()
        if rest.size:
            flat = np.concatenate([rest, flat])
        cut = flat.size - flat.size % _BLOCK
        yield from _slabs(flat[:cut], _BLOCK)
        rest = flat[cut:]
    if rest.size:
        yield rest


def unfold(x, mode):
    """Mode-``mode`` unfolding of ``x`` as an ``n_mode x rest`` matrix.

    Mode-``mode`` fibers become columns; columns are ordered so the
    lower-numbered remaining mode varies fastest.
    """
    x = as_tensor3(x)
    _check_mode(mode)
    axis = mode - 1
    m = np.reshape(np.moveaxis(x, axis, 0), (x.shape[axis], -1), order="F")
    return np.ascontiguousarray(m)


def mode_product(x, mat, mode):
    """Mode-``mode`` product ``x x_mode mat``.

    ``mat`` must have as many columns as ``x`` has entries along ``mode``;
    the result has ``mat.shape[0]`` entries along that mode (Kolda &
    Bader, SIAM Review 51(3), 2009, section 2.5).  Each mode is one
    product whose output is already in C order: mode 1 is one GEMM on
    ``x`` viewed as ``n1 x (n2 n3)``, mode 2 a GEMM per mode-1 slice
    and mode 3 one GEMM on ``x`` viewed as ``(n1 n2) x n3``.
    """
    x = as_tensor3(x)
    _check_mode(mode)
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={mat.ndim}")
    axis = mode - 1
    if mat.shape[1] != x.shape[axis]:
        raise ShapeError(
            f"matrix has {mat.shape[1]} columns but mode {mode} has "
            f"extent {x.shape[axis]}"
        )
    if mode == 1:
        return np.tensordot(mat, x, 1)
    if mode == 2:
        return np.matmul(mat, x)
    return np.tensordot(x, mat, ([2], [1]))


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``m = u @ diag(singular_values) @ vt``.

    ``u`` has orthonormal columns with the deterministic sign convention
    described in the module docstring; ``singular_values`` is
    non-negative and non-increasing.
    """

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray


def svd(m):
    """Thin SVD of a matrix with deterministic factor signs.

    Raises
    ------
    NumericError
        If ``m`` contains non-finite values or the factorization fails
        to converge.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={m.ndim}")
    if min(m.shape) < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {m.shape}")
    _check_finite(m, "matrix")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge: {exc}") from exc
    # Flip signs so each left singular vector's largest-magnitude entry is
    # positive; argmax takes the first maximum, which settles ties.
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0
    u[:, flip] = -u[:, flip]
    vt[flip, :] = -vt[flip, :]
    return SvdResult(u=u, singular_values=s, vt=vt)


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS as the loaded ``ctypes.CDLL``, or ``None``.

    numpy's wheels ship ``libscipy_openblas64_`` in ``numpy.libs`` beside
    the package.  numpy has loaded it already, so ``CDLL`` only finds the
    loaded copy.  A library without the thread-count calls is no match.
    Its ILP64 interface takes every integer as an int64, so this declares
    the signatures of the calls :class:`_OneBlasThread` and :func:`_qr_r`
    make; the QR's ``dgeqrt`` may be missing.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if name.startswith("libscipy_openblas64_"):
            try:
                lib = ctypes.CDLL(os.path.join(libs, name))
                get = lib.scipy_openblas_get_num_threads64_
                set_ = lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            geqrt = getattr(lib, "scipy_dgeqrt_64_", None)
            if geqrt is not None:
                # Without argtypes, ctypes passes the arrays as 32-bit ints.
                int64 = ctypes.POINTER(ctypes.c_int64)
                matrix = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
                geqrt.argtypes = [int64, int64, int64, matrix, int64, matrix, int64, matrix, int64]
                geqrt.restype = None
            return lib
    return None


class _OneBlasThread:
    """Context manager: numpy's OpenBLAS runs on one thread inside it.

    The first entrant saves the thread count and sets 1; the last to
    leave restores the saved count, also when the body raises.  A lock
    and a depth count make it re-entrant and safe to share between
    Python threads.  Without the bundled OpenBLAS it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None

    def __enter__(self):
        lib = _openblas()
        with self._lock:
            if lib is not None and self._depth == 0:
                self._saved = lib.scipy_openblas_get_num_threads64_()
                lib.scipy_openblas_set_num_threads64_(1)
            self._depth += 1

    def __exit__(self, *exc):
        lib = _openblas()
        with self._lock:
            self._depth -= 1
            if lib is not None and self._depth == 0:
                lib.scipy_openblas_set_num_threads64_(self._saved)


_one_blas_thread = _OneBlasThread()


def _qr_r(a):
    """``np.linalg.qr(a, mode="r")``: the ``min(m, n) x n`` ``R`` of an ``m x n`` ``a``.

    It runs LAPACK's recursive blocked QR, ``dgeqrt`` (Elmroth &
    Gustavson, IBM J. Res. Dev. 44(4), 2000), with ``nb = min(32, m, n)``
    columns a block, from numpy's bundled OpenBLAS (:func:`_openblas`).
    On one thread it took 1.6 ms where ``np.linalg.qr``'s ``dgeqrf`` took
    4.6 ms for a 1,024 x 128 block.  ``dgeqrt`` overwrites its input, so
    it gets a private Fortran-order copy; ``np.asfortranarray`` would hand
    back the caller's volume when ``a`` is already a Fortran view of it.
    Without that library or symbol it is ``np.linalg.qr`` itself.
    """
    geqrt = getattr(_openblas(), "scipy_dgeqrt_64_", None)
    if geqrt is None:
        return np.linalg.qr(a, mode="r")
    a = np.array(a, dtype=np.float64, order="F")
    m, n = a.shape
    k = min(m, n)
    nb = min(32, k)
    t, work = np.empty((nb, k), order="F"), np.empty((nb, n), order="F")
    info = ctypes.c_int64()
    ints = [ctypes.byref(ctypes.c_int64(v)) for v in (m, n, nb, m, nb)]
    geqrt(*ints[:3], a, ints[3], t, ints[4], work, ctypes.byref(info))
    if info.value:
        # Only an illegal argument sets info: a bug here, not a numeric failure.
        raise RuntimeError(f"dgeqrt rejected argument {-info.value}")
    return np.triu(a[:k])


# Least rows per TSQR block and per merge.  With dgeqrt on 2 cores, the
# least of 12 decompose times with 512, 1,024, 2,048 and 4,096 rows was
# 128, 106, 98 and 113 ms at 128^3, r = 32, and 120, 102, 96 and 97 ms at
# 96x128x160, r = 48.  2,048 rows would change every model's last bits
# for a few percent, so 1,024 stays.
_TSQR_ROWS = 1024


def _unfolded(w):
    """``w`` of shape ``(p, n, q)`` as an ``n x (p q)`` matrix, columns in index order."""
    return w.swapaxes(0, 1).reshape(w.shape[1], -1)


def _tsqr_r(w):
    """``R`` of ``_unfolded(w).T`` by a blocked TSQR, for ``w`` of shape ``(p, n, q)``.

    A block is the fewest whole slabs ``w[i : i + s]`` that hold
    ``rows = max(_TSQR_ROWS, 2 n)`` rows; the block ``R``s are merged, the
    fewest that hold ``rows`` rows at a time, until one ``R`` remains.  So
    the tree depends on the shape alone.  Every block and merge is one
    :func:`_qr_r`: ``dgeqrt`` from numpy's bundled OpenBLAS, or
    ``np.linalg.qr`` without it.  Each level is a generator, so only a
    few blocks and ``R``s are alive at once.
    """
    p, n, q = w.shape
    rows = max(_TSQR_ROWS, 2 * n)
    s, group = -(-rows // q), -(-rows // n)
    rs = (_qr_r(_unfolded(b).T) for b in _slabs(w, s))
    count = -(-p // s)
    while count > 1:
        rs, count = _merged(rs, group), -(-count // group)
    return next(rs)


def _merged(rs, group):
    """``R`` of each run of ``group`` consecutive ``rs``, stacked, in order."""
    for first in rs:
        yield _qr_r(np.concatenate([first, *itertools.islice(rs, group - 1)]))


def mode_factor(x, mode, r):
    """The ``r`` leading left singular vectors of ``unfold(x, mode)``.

    Column order leaves them unchanged, so the unfolding is
    ``_unfolded(w)`` for ``w = np.moveaxis(x, mode - 1, 1)``: a view for
    modes 1 and 3, a copy for mode 2.  A wide unfolding goes through
    :func:`svd` as the transpose of its TSQR factor (:func:`_tsqr_r`),
    which copies only one mode-2 block at a time; any other goes through
    as it is.  Either way the columns keep :func:`svd`'s sign convention.
    The QRs are LAPACK's ``dgeqrt`` from numpy's bundled OpenBLAS, about
    twice as fast as ``np.linalg.qr``, which serves without that library
    (:func:`_qr_r`).  Every QR and the SVD run on one OpenBLAS thread,
    where such a call ran up to 4x faster than on two.
    """
    x = as_tensor3(x)
    _check_mode(mode)
    w = np.moveaxis(x, mode - 1, 1)
    p, n, q = w.shape
    with _one_blas_thread:
        a = _tsqr_r(w).T if p * q > n else _unfolded(w)
        return svd(a).u[:, :r].copy()
