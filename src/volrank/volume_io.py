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

Each format has one parser, fed bytes, a file or a pipe (read whole
first): it reads the header, applies the size rule and reads the payload
straight into one array.  The model writer, parser and level reads all
walk ``_model_blocks``.  The s3dsvd qsigma block is written from the core
diagonal (:attr:`volrank.s3dsvd.S3dModel.qsigma`); the parser checks the
stored block against the core, then drops it.  A level-``j`` read keeps
the leading ``j`` entries along every axis of length rank, so it
reconstructs as the truncated full model does, but it reads every byte.
"""

import io
import math
import operator
import os
import stat
import struct

import numpy as np

from .baselines import CpModel, TuckerModel, _check_seed
from .errors import NumericError, ParseError, ShapeError
from .s3dsvd import S3dModel, expand
from .tensor_core import _check_finite, _check_level, _rank_one_sum, as_tensor3

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
        {"iterations_run": 0, "converged": False, "ridge_applied": False,
         "fit_history": ()},
    ),
}
_METHOD_NAMES = {code: name for name, (code, *_) in _LAYOUTS.items()}


def _volume_parts(x, dtype):
    """Check a volume for writing; return its header and C-ordered payload array.

    Raises ``ShapeError``, then ``NumericError`` for a non-finite value,
    then ``ValueError`` for an unknown ``dtype``, then ``NumericError``,
    as the reader words it, for a value that overflows a float32 payload.
    """
    x = as_tensor3(x)
    _check_finite(x, "volume")
    if dtype not in _DTYPE_NAMES:
        raise ValueError(f"dtype must be float32 or float64, got {dtype!r}")
    code = _DTYPE_NAMES[dtype]
    header = VOLUME_MAGIC + struct.pack("<HHIII", FORMAT_VERSION, code, *x.shape)
    with np.errstate(over="ignore"):  # a cast that overflows is the inf checked below
        payload = np.ascontiguousarray(x, dtype=_DTYPE_CODES[code])
    if payload is not x:
        _check_finite(payload, "volume payload")
    return header, payload


def volume_to_bytes(x, dtype="float64"):
    """Serialize a volume; ``dtype`` picks the payload precision."""
    return b"".join(_volume_parts(x, dtype))


def _read_header(fh, kind, magic, codes, code_name, fields):
    """Read and check an S3DV/S3DM header; return ``codes[code]`` and its u32 ``fields``."""
    size = 8 + struct.calcsize(fields)
    data = fh.read(size)
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
    return codes[code], struct.unpack_from(fields, data, 8)


def _read_payload(fh, kind, size, head, dtype, shape):
    """Read the payload after ``fh``'s ``head``-byte header into one array.

    A file ``size`` other than the header fixes is a ``ParseError`` raised
    before allocating, as is a stream that then yields fewer bytes.
    """
    expected = head + math.prod(shape) * np.dtype(dtype).itemsize
    if size != expected:
        raise ParseError(
            f"payload size mismatch: expected {expected} bytes, found {size}",
            offset=min(size, expected),
        )
    a = np.empty(shape, dtype=dtype)
    got = fh.readinto(a)
    if got != a.nbytes:
        raise ParseError(
            f"{kind} file changed while read: expected {a.nbytes} payload bytes, "
            f"found {got}",
            offset=head + got,
        )
    return a


def _read_file(path, parse, *args):
    """``parse(stream, size, *args)`` on ``path``; a file with no size is read whole first."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            return parse(fh, info.st_size, *args)
        data = fh.read()
    return parse(io.BytesIO(data), len(data), *args)


def _parse_volume(fh, size):
    """The S3DV parser: a float64 tensor from stream ``fh`` of ``size`` bytes."""
    dtype, dims = _read_header(fh, "volume", VOLUME_MAGIC, _DTYPE_CODES, "dtype", "<III")
    if min(dims) < 1:
        raise ParseError(f"dimensions must be positive, got {dims}", offset=8)
    x = _read_payload(fh, "volume", size, 20, dtype, dims).astype(np.float64, copy=False)
    _check_finite(x, "volume payload")
    return x


def volume_from_bytes(data):
    """Parse a serialized volume back into a float64 tensor."""
    return _parse_volume(io.BytesIO(data), len(data))


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
    """Read a volume file with :func:`volume_from_bytes`'s parser.

    The payload is read straight into one array; a float32 one then becomes float64.
    """
    return _read_file(path, _parse_volume)


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


def _model_parts(model):
    """Check a model for writing; return the file's parts: header, float blocks, seed.

    Raises as :func:`model_to_bytes` documents, before any bytes are built.
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
    return [header, *(flat for _, flat in flats), seed]


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
    return b"".join(_model_parts(model))


def _parse_model(fh, size, level):
    """The S3DM parser: :func:`model_from_bytes` on stream ``fh`` of ``size`` bytes."""
    method, header = _read_header(fh, "model", MODEL_MAGIC, _METHOD_NAMES, "method", "<IIII")
    dims, rank = header[:3], header[3]
    if min(dims) < 1 or not 1 <= rank <= min(dims):
        raise ParseError(f"invalid dims {dims} / rank {rank}", offset=8)
    blocks = _model_blocks(method, dims, rank)
    sizes = [math.prod(shape) for _, _, shape, _ in blocks]
    # One array holds every float block and, for cpd, the u64 seed's slot.
    payload = _read_payload(fh, "model", size, 24, "<f8", (sum(sizes) + (method == "cpd"),))
    if level is not None:
        if method == "cpd":
            raise ValueError(
                "cpd models reconstruct at their fitted rank; level is not supported"
            )
        level = _check_level(level, rank, "level")
    _, kind, _, unstored = _LAYOUTS[method]
    fields = dict(unstored, factors=())
    *flats, seed = np.split(payload, np.cumsum(sizes))
    if method == "cpd":
        fields["seed"] = int(seed.view("<u8")[0])
    kept = blocks if level is None else _model_blocks(method, dims, level)
    full = {}
    for (what, field, shape, order), flat, (*_, keep, _) in zip(blocks, flats, kept):
        _check_finite(flat, what)
        full[field] = a = flat.reshape(shape, order=order)
        if level is not None:
            a = np.ascontiguousarray(a[tuple(map(slice, keep))])
        fields[field] = fields["factors"] + (a,) if field == "factors" else a
    if method == "s3dsvd":  # the model reads qsigma off its core
        differ = np.flatnonzero(np.einsum("iii->i", full["core"]) != full["qsigma"])
        if differ.size:
            raise NumericError(f"qsigma differs from the core diagonal at index {differ[0]}")
        del fields["qsigma"]
    return kind(dims=dims, rank=level or rank, **fields)


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
    return _parse_model(io.BytesIO(data), len(data), level)


def write_model(path, model):
    """Write ``model_to_bytes(model)``'s bytes to ``path``.

    Every check runs before the file is opened; each float block is
    written from its array's own buffer, as :func:`write_volume` writes
    a payload.
    """
    parts = _model_parts(model)
    with open(path, "wb") as fh:
        fh.writelines(parts)


def read_model(path, level=None):
    """Read a model file with :func:`model_from_bytes`'s parser.

    Its floats are read straight into one array, as :func:`read_volume`
    reads a payload; a full read's arrays are views of it.
    """
    return _read_file(path, _parse_model, level)


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
        clipped back to [0, 1].  ``noise`` must satisfy
        ``0 <= 2 * noise < inf``: numpy draws only from an interval of
        finite width.
    """
    dims = tuple(map(operator.index, dims))
    if len(dims) != 3 or min(dims) < 1:
        raise ShapeError(f"dims must be three positive integers, got {dims}")
    rng = np.random.default_rng(operator.index(seed))
    if kind == "multirank":
        rho = _check_level(rho, min(dims), "rho")
        factors = [np.linalg.qr(rng.standard_normal((n, rho)))[0] for n in dims]
        return expand(rng.standard_normal((rho, rho, rho)), factors, rho)
    if kind in ("blobs", "blobs_noisy"):
        blobs = operator.index(blobs)
        if blobs < 1:
            raise ValueError(f"blobs must be at least 1, got {blobs}")
        noise = float(noise)
        if not 0.0 <= 2.0 * noise < math.inf:
            raise ValueError(f"noise must satisfy 0 <= 2 * noise < inf, got {noise}")
        profiles = [np.zeros((n, blobs)) for n in dims]
        grids = [np.arange(n, dtype=np.float64) for n in dims]
        for b in range(blobs):
            amp = rng.uniform(0.5, 1.0)
            centers = [rng.uniform(0.25, 0.75) * (n - 1) for n in dims]
            widths = [rng.uniform(0.05, 0.2) * n for n in dims]
            for profile, g, c, w in zip(profiles, grids, centers, widths):
                profile[:, b] = np.exp(-((g - c) ** 2) / (2.0 * w**2))
            profiles[0][:, b] *= amp
        x = _rank_one_sum(np.ones(blobs), *profiles)
        x /= np.max(x)
        if kind == "blobs_noisy":
            x = np.clip(x + rng.uniform(-noise, noise, size=dims), 0.0, 1.0)
        return x
    raise ValueError(f"unknown kind {kind!r}; expected multirank, blobs, or blobs_noisy")
