"""Binary volume/model file formats and synthetic volume generation.

Both formats are little-endian with fixed headers, and the header fixes
the file's size: any other length is one ``ParseError``, raised before the
payload is allocated.

* Volume (magic ``S3DV``): u16 format version, u16 dtype code
  (0 = float32, 1 = float64), three u32 dims, then the payload in
  C order (mode-3 index fastest).
* Model (magic ``S3DM``): u16 format version, u16 method code
  (0 = s3dsvd, 1 = tucker, 2 = cpd), three u32 dims, u32 rank, the
  float64 blocks of ``_model_blocks`` (the three factor matrices
  column-major, then core and qsigma for s3dsvd, core for tucker, weights
  for cpd), then a u64 seed for cpd.

The writer, the reader and level reads all walk ``_model_blocks``.  The
s3dsvd qsigma block is written from :attr:`volrank.s3dsvd.S3dModel.qsigma`,
the core diagonal, so a writer cannot store a mismatch; the reader still
checks the whole stored block against the core and then drops it, since
the model reads qsigma off its core.  A level-``j`` read parses the whole
model, then keeps the leading ``j`` entries along every axis of length
rank (factor columns, core block); it reconstructs exactly as the
truncated full model does.  The level-``j`` data is scattered through the
file, so every level reads every byte.
"""

import math
import operator
import os
import stat
import struct

import numpy as np

from .baselines import CpModel, TuckerModel, _check_seed
from .errors import NumericError, ParseError, ShapeError
from .s3dsvd import S3dModel, expand
from .tensor_core import _check_finite, _check_level, as_tensor3

__all__ = [
    "gen_synthetic",
    "model_from_bytes",
    "model_to_bytes",
    "read_model",
    "read_volume",
    "volume_from_bytes",
    "volume_to_bytes",
    "write_model",
    "write_volume",
]

VOLUME_MAGIC = b"S3DV"
MODEL_MAGIC = b"S3DM"
FORMAT_VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_NAMES = {"float32": 0, "float64": 1}

# Per method: the header's method code, the model type, the float blocks
# written after the factors as (name in messages, attribute, number of axes
# of length rank), and the fields the file does not store.
_LAYOUTS = {
    "s3dsvd": (0, S3dModel, (("core tensor", "core", 3), ("qsigma", "qsigma", 1)), {}),
    "tucker": (1, TuckerModel, (("core tensor", "core", 3),), {"fit_history": ()}),
    "cpd": (
        2,
        CpModel,
        (("weights", "weights", 1),),
        {"iterations_run": 0, "converged": False, "ridge_applied": False},
    ),
}
_METHOD_NAMES = {code: name for name, (code, *_) in _LAYOUTS.items()}


def _volume_parts(x, dtype):
    """Check a volume for writing; return its header and C-ordered payload array.

    Raises ``ShapeError``, then ``NumericError`` for a non-finite value,
    then ``ValueError`` for an unknown ``dtype``.
    """
    x = as_tensor3(x)
    _check_finite(x, "volume")
    if dtype not in _DTYPE_NAMES:
        raise ValueError(f"dtype must be float32 or float64, got {dtype!r}")
    code = _DTYPE_NAMES[dtype]
    header = VOLUME_MAGIC + struct.pack("<HHIII", FORMAT_VERSION, code, *x.shape)
    return header, np.ascontiguousarray(x, dtype=_DTYPE_CODES[code])


def volume_to_bytes(x, dtype="float64"):
    """Serialize a volume; ``dtype`` picks the payload precision."""
    header, payload = _volume_parts(x, dtype)
    return header + payload.tobytes()


def _read_header(data, kind, magic, size, codes, code_name):
    """Check an S3DV/S3DM header up to its code; return ``codes[code]``."""
    if len(data) < size:
        raise ParseError(
            f"{kind} header needs {size} bytes, found {len(data)}", offset=len(data)
        )
    if data[:4] != magic:
        raise ParseError(f"bad {kind} magic {data[:4]!r}", offset=0)
    version, code = struct.unpack_from("<HH", data, 4)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version}", offset=4)
    if code not in codes:
        raise ParseError(f"unknown {code_name} code {code}", offset=6)
    return codes[code]


def _volume_layout(header, size):
    """Check a volume's header against its total ``size`` in bytes.

    ``header`` holds at least the file's first 20 bytes, or all of a
    shorter file.  Returns the payload's ``(dtype, dims)``.
    """
    dtype = _read_header(header, "volume", VOLUME_MAGIC, 20, _DTYPE_CODES, "dtype")
    dims = struct.unpack_from("<III", header, 8)
    if min(dims) < 1:
        raise ParseError(f"dimensions must be positive, got {dims}", offset=8)
    expected = 20 + dims[0] * dims[1] * dims[2] * dtype.itemsize
    if size != expected:
        raise ParseError(
            f"payload size mismatch: expected {expected} bytes, found {size}",
            offset=min(size, expected),
        )
    return dtype, dims


def volume_from_bytes(data):
    """Parse a serialized volume back into a float64 tensor."""
    dtype, dims = _volume_layout(data, len(data))
    x = np.frombuffer(data, dtype=dtype, offset=20).astype(np.float64).reshape(dims)
    _check_finite(x, "volume payload")
    return x


def write_volume(path, x, dtype="float64"):
    """Write ``volume_to_bytes(x, dtype)``'s bytes to ``path``.

    Every check runs before the file is opened; the payload is written
    from the array's own buffer, without a bytes copy.
    """
    header, payload = _volume_parts(x, dtype)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_volume(path):
    """Read a volume file as :func:`volume_from_bytes` parses its bytes.

    The header is checked against the file's size first; the payload is
    then read straight into one array of the file's dtype, which only a
    float32 file converts to float64.  A pipe or other file with no size
    is read whole and parsed from its bytes.
    """
    with open(path, "rb") as fh:
        header = fh.read(20)
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            return volume_from_bytes(header + fh.read())
        dtype, dims = _volume_layout(header, info.st_size)
        x = np.empty(dims, dtype=dtype)
        got = fh.readinto(x)
    if got != x.nbytes:
        raise ParseError(
            f"volume file changed while read: expected {x.nbytes} payload bytes, "
            f"found {got}",
            offset=20 + got,
        )
    x = x.astype(np.float64, copy=False)
    _check_finite(x, "volume payload")
    return x


def _model_blocks(method, dims, rank):
    """Every float block of a ``method`` model file, in file order.

    Each block is ``(name in messages, attribute, shape, order)``: the
    three factor matrices, column-major, then the method's ``_LAYOUTS``
    blocks in C order.  With a lower ``rank`` it gives the leading part
    of each block that a level read keeps.
    """
    blocks = [
        (f"factor matrix u{mode}", "factors", (n, rank), "F")
        for mode, n in enumerate(dims, start=1)
    ]
    for what, field, axes in _LAYOUTS[method][2]:
        blocks.append((what, field, (rank,) * axes, "C"))
    return blocks


def model_to_bytes(model):
    """Serialize a decomposition model; the method is inferred from its type.

    Every check runs before any bytes are built, in the order
    :class:`TypeError` for an unknown model type, :class:`ShapeError`
    unless ``dims`` and ``rank`` are integers with
    ``1 <= rank <= min(dims)`` and each array has the shape that
    ``dims`` and ``rank`` give it, :class:`NumericError` for a NaN or inf
    in a float block, then :func:`volrank.baselines.cpd_decompose`'s seed
    rule for a cpd seed.  The writer thereby refuses what
    :func:`model_from_bytes` would reject.
    """
    for method, (code, kind, _, _) in _LAYOUTS.items():
        if isinstance(model, kind):
            break
    else:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    try:
        dims, rank = tuple(map(operator.index, model.dims)), operator.index(model.rank)
    except TypeError:
        raise ShapeError(f"dims {model.dims} / rank {model.rank} must be integers") from None
    factors = tuple(model.factors)
    if len(dims) != 3 or not 1 <= rank <= min(dims):
        raise ShapeError(f"invalid dims {dims} / rank {rank}")
    if len(factors) != 3:
        raise ShapeError(f"expected 3 factor matrices, got {len(factors)}")
    # Each block's shape is checked before the next is read, so qsigma is
    # only taken from a core already known to be rank x rank x rank.
    factors = iter(factors)
    flats = []
    for what, field, shape, order in _model_blocks(method, dims, rank):
        a = np.asarray(next(factors) if field == "factors" else getattr(model, field), "<f8")
        if a.shape != shape:
            raise ShapeError(f"{what} has shape {a.shape}, expected {shape}")
        flats.append((what, a.ravel(order=order)))
    for what, flat in flats:
        _check_finite(flat, what)
    seed = struct.pack("<Q", _check_seed(model.seed)) if method == "cpd" else b""
    header = MODEL_MAGIC + struct.pack("<HHIIII", FORMAT_VERSION, code, *dims, rank)
    return header + b"".join(flat.tobytes() for _, flat in flats) + seed


def model_from_bytes(data, level=None):
    """Parse a serialized model, optionally truncated to its first ``level`` terms.

    A level-``j`` read keeps the leading ``j`` entries along every axis of
    length rank (s3dsvd and tucker only); it reconstructs identically to
    truncating the fully parsed model.  The header's dims and rank fix the
    file's size, which is checked before anything is allocated.  The whole
    file's values are checked after its structure and ``level`` have been
    accepted: every float block for non-finite values, then an s3dsvd
    file's stored qsigma against its core diagonal.  A malformed file is
    therefore a :class:`ParseError` whatever values it holds.
    """
    method = _read_header(data, "model", MODEL_MAGIC, 24, _METHOD_NAMES, "method")
    *dims, rank = struct.unpack_from("<IIII", data, 8)
    dims = tuple(dims)
    if min(dims) < 1 or not 1 <= rank <= min(dims):
        raise ParseError(f"invalid dims {dims} / rank {rank}", offset=8)
    blocks = _model_blocks(method, dims, rank)
    sizes = [math.prod(shape) for _, _, shape, _ in blocks]
    expected = 24 + 8 * sum(sizes) + (8 if method == "cpd" else 0)
    if len(data) != expected:
        raise ParseError(
            f"payload size mismatch: expected {expected} bytes, found {len(data)}",
            offset=min(len(data), expected),
        )
    if level is not None:
        if method == "cpd":
            raise ValueError(
                "cpd models reconstruct at their fitted rank; level is not supported"
            )
        level = _check_level(level, rank, "level")
    _, kind, _, unstored = _LAYOUTS[method]
    fields = dict(unstored, factors=())
    if method == "cpd":
        (fields["seed"],) = struct.unpack_from("<Q", data, expected - 8)
    floats = np.frombuffer(data, dtype="<f8", count=sum(sizes), offset=24).copy()
    flats = np.split(floats, np.cumsum(sizes[:-1]))
    kept = blocks if level is None else _model_blocks(method, dims, level)
    full = {}
    for (what, field, shape, order), flat, (*_, keep, _) in zip(blocks, flats, kept):
        _check_finite(flat, what)
        full[field] = a = flat.reshape(shape, order=order)
        if level is not None:
            a = np.ascontiguousarray(a[tuple(map(slice, keep))])
        if field == "factors":
            fields["factors"] += (a,)
        else:
            fields[field] = a
    if method == "s3dsvd":  # the model reads qsigma off its core
        differ = np.flatnonzero(np.einsum("iii->i", full["core"]) != full["qsigma"])
        if differ.size:
            raise NumericError(f"qsigma differs from the core diagonal at index {differ[0]}")
        del fields["qsigma"]
    return kind(dims=dims, rank=level or rank, **fields)


def write_model(path, model):
    data = model_to_bytes(model)
    with open(path, "wb") as fh:
        fh.write(data)


def read_model(path, level=None):
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read(), level=level)


def gen_synthetic(kind, dims, seed=0, rho=4, blobs=32, noise=0.05):
    """Generate a deterministic synthetic volume.

    Kinds
    -----
    ``multirank``
        Exact multilinear rank ``(rho, rho, rho)``: a random Gaussian core
        expanded through per-mode orthonormal factors.
    ``blobs``
        Sum of ``blobs`` separable anisotropic Gaussian bumps (each an
        exact rank-one term) with random centers, widths, and amplitudes,
        scaled so the maximum is exactly 1 and values stay in [0, 1].
    ``blobs_noisy``
        The ``blobs`` volume plus uniform noise in [-noise, noise],
        clipped back to [0, 1].
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or min(dims) < 1:
        raise ShapeError(f"dims must be three positive integers, got {dims}")
    rng = np.random.default_rng(int(seed))
    if kind == "multirank":
        rho = _check_level(rho, min(dims), "rho")
        factors = [np.linalg.qr(rng.standard_normal((n, rho)))[0] for n in dims]
        return expand(rng.standard_normal((rho, rho, rho)), factors, rho)
    if kind in ("blobs", "blobs_noisy"):
        blobs = int(blobs)
        if blobs < 1:
            raise ValueError(f"blobs must be at least 1, got {blobs}")
        noise = float(noise)
        if noise < 0.0:
            raise ValueError(f"noise must be non-negative, got {noise}")
        profiles = [np.zeros((n, blobs)) for n in dims]
        grids = [np.arange(n, dtype=np.float64) for n in dims]
        for b in range(blobs):
            amp = rng.uniform(0.5, 1.0)
            centers = [rng.uniform(0.25, 0.75) * (n - 1) for n in dims]
            widths = [rng.uniform(0.05, 0.2) * n for n in dims]
            for mode in range(3):
                profile = np.exp(
                    -((grids[mode] - centers[mode]) ** 2) / (2.0 * widths[mode] ** 2)
                )
                if mode == 0:
                    profile = amp * profile
                profiles[mode][:, b] = profile
        x = np.einsum("ib,jb,kb->ijk", *profiles, optimize=True)
        x /= np.max(x)
        if kind == "blobs_noisy":
            x = np.clip(x + rng.uniform(-noise, noise, size=dims), 0.0, 1.0)
        return np.ascontiguousarray(x)
    raise ValueError(f"unknown kind {kind!r}; expected multirank, blobs, or blobs_noisy")
