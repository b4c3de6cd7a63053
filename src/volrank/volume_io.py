"""Binary volume/model file formats and synthetic volume generation.

Both formats are little-endian with fixed headers:

* Volume (magic ``S3DV``): u16 format version, u16 dtype code
  (0 = float32, 1 = float64), three u32 dims, then the payload in
  C order (mode-3 index fastest).
* Model (magic ``S3DM``): u16 format version, u16 method code
  (0 = s3dsvd, 1 = tucker, 2 = cpd), three u32 dims, u32 rank, the three
  factor matrices as column-major float64, then a method payload:
  core (C order) plus qsigma for s3dsvd, core alone for tucker, weights
  plus a u64 seed for cpd.

``_LAYOUTS`` is the one definition of each method's payload: the writer,
the reader and level reads all follow it.  A level-``j`` read parses the
whole model, then keeps the leading ``j`` entries along every axis of
length rank (factor columns, core block, qsigma); it reconstructs exactly
as the truncated full model does.  The level-``j`` data is scattered
through the file, so every level reads every byte.
"""

import struct

import numpy as np

from .baselines import CpModel, TuckerModel
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
_METHOD_CODES = {"s3dsvd": 0, "tucker": 1, "cpd": 2}
_METHOD_NAMES = {code: name for name, code in _METHOD_CODES.items()}

# Per method: the model type, its rank field, the float blocks written after
# the factors as (name in messages, field, number of axes of length rank),
# and the fields the file does not store.
_LAYOUTS = {
    "s3dsvd": (S3dModel, "r", (("core tensor", "core", 3), ("qsigma", "qsigma", 1)), {}),
    "tucker": (TuckerModel, "rank", (("core tensor", "core", 3),), {"fit_history": ()}),
    "cpd": (
        CpModel,
        "rank",
        (("weights", "weights", 1),),
        {"iterations_run": 0, "converged": False, "ridge_applied": False},
    ),
}


def volume_to_bytes(x, dtype="float64"):
    """Serialize a volume; ``dtype`` picks the payload precision."""
    x = as_tensor3(x)
    _check_finite(x, "volume")
    if dtype not in _DTYPE_NAMES:
        raise ValueError(f"dtype must be float32 or float64, got {dtype!r}")
    code = _DTYPE_NAMES[dtype]
    header = VOLUME_MAGIC + struct.pack("<HHIII", FORMAT_VERSION, code, *x.shape)
    return header + np.ascontiguousarray(x, dtype=_DTYPE_CODES[code]).tobytes(order="C")


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


def volume_from_bytes(data):
    """Parse a serialized volume back into a float64 tensor."""
    dtype = _read_header(data, "volume", VOLUME_MAGIC, 20, _DTYPE_CODES, "dtype")
    dims = struct.unpack_from("<III", data, 8)
    if min(dims) < 1:
        raise ParseError(f"dimensions must be positive, got {dims}", offset=8)
    expected = 20 + dims[0] * dims[1] * dims[2] * dtype.itemsize
    if len(data) != expected:
        raise ParseError(
            f"payload size mismatch: expected {expected} bytes, found {len(data)}",
            offset=min(len(data), expected),
        )
    x = np.frombuffer(data, dtype=dtype, offset=20).astype(np.float64).reshape(dims)
    _check_finite(x, "volume payload")
    return x


def write_volume(path, x, dtype="float64"):
    data = volume_to_bytes(x, dtype=dtype)
    with open(path, "wb") as fh:
        fh.write(data)


def read_volume(path):
    with open(path, "rb") as fh:
        return volume_from_bytes(fh.read())


def model_to_bytes(model):
    """Serialize a decomposition model; the method is inferred from its type.

    Raises :class:`NumericError` if a float block holds a NaN or inf, or
    an s3dsvd model's qsigma is not its core diagonal, as
    :func:`model_from_bytes` would.
    """
    for method, (kind, rank_field, blocks, _) in _LAYOUTS.items():
        if isinstance(model, kind):
            break
    else:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    rank = getattr(model, rank_field)
    header = MODEL_MAGIC + struct.pack(
        "<HHIIII", FORMAT_VERSION, _METHOD_CODES[method], *model.dims, rank
    )
    # Factors are written column-major, the other blocks in C order.
    flats = [
        (f"factor matrix u{mode}", np.asarray(u, dtype="<f8").ravel(order="F"))
        for mode, u in enumerate(model.factors, start=1)
    ] + [
        (what, np.asarray(getattr(model, field), dtype="<f8").ravel())
        for what, field, _ in blocks
    ]
    for what, flat in flats:
        _check_finite(flat, what)
    if method == "s3dsvd":
        _check_qsigma(flats)
    seed = struct.pack("<Q", model.seed) if method == "cpd" else b""
    return header + b"".join(flat.tobytes() for _, flat in flats) + seed


def _take_floats(data, pos, count, what, blocks):
    """Read ``count`` float64s at ``pos``, appending ``(what, flat)`` to ``blocks``."""
    end = pos + 8 * count
    if end > len(data):
        raise ParseError(
            f"truncated {what}: expected {8 * count} bytes", offset=len(data)
        )
    flat = np.frombuffer(data, dtype="<f8", count=count, offset=pos).copy()
    blocks.append((what, flat))
    return flat, end


def model_from_bytes(data, level=None):
    """Parse a serialized model, optionally truncated to its first ``level`` terms.

    A level-``j`` read keeps the leading ``j`` entries along every axis of
    length rank (s3dsvd and tucker only); it reconstructs identically to
    truncating the fully parsed model.  The whole file's values are
    checked after its structure and ``level`` have been accepted: every
    float block for non-finite values, then an s3dsvd qsigma against its
    core diagonal.  A malformed file is therefore a :class:`ParseError`
    whatever values it holds.
    """
    method = _read_header(data, "model", MODEL_MAGIC, 24, _METHOD_NAMES, "method")
    kind, rank_field, payload, unstored = _LAYOUTS[method]
    *dims, rank = struct.unpack_from("<IIII", data, 8)
    dims = tuple(dims)
    if min(dims) < 1 or not 1 <= rank <= min(dims):
        raise ParseError(f"invalid dims {dims} / rank {rank}", offset=8)
    pos = 24
    blocks = []
    factors = []
    for mode, n in enumerate(dims, start=1):
        flat, pos = _take_floats(data, pos, n * rank, f"factor matrix u{mode}", blocks)
        factors.append(flat.reshape((n, rank), order="F"))
    fields = {}
    for what, field, axes in payload:
        flat, pos = _take_floats(data, pos, rank**axes, what, blocks)
        fields[field] = flat.reshape((rank,) * axes)
    if method == "cpd":
        if pos + 8 > len(data):
            raise ParseError("truncated seed: expected 8 bytes", offset=len(data))
        (fields["seed"],) = struct.unpack_from("<Q", data, pos)
        pos += 8
    if pos != len(data):
        raise ParseError(f"trailing bytes after model payload", offset=pos)
    if level is not None:
        if method == "cpd":
            raise ValueError(
                "cpd models reconstruct at their fitted rank; level is not supported"
            )
        rank = _check_level(level, rank, "level")
        factors = [np.ascontiguousarray(u[:, :rank]) for u in factors]
        for field, a in fields.items():
            fields[field] = np.ascontiguousarray(a[(slice(rank),) * a.ndim])
    for what, flat in blocks:
        _check_finite(flat, what)
    if method == "s3dsvd":
        _check_qsigma(blocks)
    return kind(
        dims=dims, factors=tuple(factors), **{rank_field: rank}, **fields, **unstored
    )


def _check_qsigma(flats):
    """Raise :class:`NumericError` unless qsigma is exactly the core diagonal.

    ``flats`` holds the ``(name, flat)`` float blocks of a whole s3dsvd
    payload, as written or read.
    """
    named = dict(flats)
    qsigma = named["qsigma"]
    core = named["core tensor"].reshape((qsigma.size,) * 3)
    differ = np.flatnonzero(np.einsum("iii->i", core) != qsigma)
    if differ.size:
        raise NumericError(
            f"qsigma differs from the core diagonal at index {differ[0]}"
        )


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
