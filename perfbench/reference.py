"""Reference computations and output checks for the volrank benchmark.

Everything here is written from the byte layouts in the repository README
and from numpy alone; nothing imports ``volrank``.  Each check compares a
program output with a value computed here, or with a bound the method must
satisfy, and raises :class:`CheckFailed` when it does not hold.

The truncation bounds are those of De Lathauwer, De Moor & Vandewalle,
"A multilinear singular value decomposition", SIMAX 21(4), 2000.  With
``T_m(j)`` the sum of the squared singular values of the mode-m unfolding
beyond the j-th, the truncated HOSVD ``x_j`` satisfies
``max_m T_m(j) <= ||x - x_j||^2 <= sum_m T_m(j)``.  The lower bound holds for
every approximation whose mode-m ranks are at most j (Eckart-Young on each
unfolding), so it also bounds HOOI and rank-j CPD from below.
"""

import math
import struct

import numpy as np

# Rounding allowances.  Each is far below the smallest fault the benchmark's
# own test plants (a reconstruction scaled by 1 + 1e-6).
EXPANSION_RTOL = 1e-11   # program expansion vs einsum, relative to max |x_j|
METRIC_RTOL = 1e-9       # program metric vs numpy formula
BOUND_RTOL = 1e-9        # truncation bounds, relative to the bound
ORTHO_TOL = 1e-12        # ||U^T U - I||_F

ROW_CHUNK = 16           # mode-1 slab height of the chunked comparisons
SCENE_SEED = 2026        # the blob layout every input volume perturbs
BLOBS = 32               # Gaussian bumps in the scene
JITTER = 0.05            # share by which the seed moves each bump


class CheckFailed(Exception):
    """A program output disagreed with its reference."""


# --------------------------------------------------------------------- inputs

def blob_volume(shape, seed, noise=0.0):
    """Sum of ``BLOBS`` separable Gaussian bumps scaled to a peak of 1.

    The bumps are one fixed scene (drawn from ``SCENE_SEED``); ``seed``
    moves each bump's amplitude and widths by up to ``JITTER`` of their
    value and its centre by up to a tenth of that share of the extent.
    With ``noise > 0`` seeded uniform noise in ``[-noise, noise]`` is added
    and the result clipped to ``[0, 1]``.  The same seed gives the same
    volume.
    """
    scene = np.random.default_rng(SCENE_SEED)
    rng = np.random.default_rng(seed)
    grids = [np.arange(n, dtype=np.float64) for n in shape]
    profiles = [np.empty((n, BLOBS)) for n in shape]
    for b in range(BLOBS):
        amp = scene.uniform(0.5, 1.0) * (1 + JITTER * rng.uniform(-1, 1))
        for mode, n in enumerate(shape):
            centre = (scene.uniform(0.2, 0.8) + JITTER * rng.uniform(-0.1, 0.1)) * (n - 1)
            width = scene.uniform(0.05, 0.2) * n * (1 + JITTER * rng.uniform(-1, 1))
            profiles[mode][:, b] = np.exp(-((grids[mode] - centre) ** 2) / (2 * width**2))
        profiles[0][:, b] *= amp
    x = np.einsum("ia,ja,ka->ijk", *profiles, optimize=True)
    x /= x.max()
    if noise:
        x = np.clip(x + rng.uniform(-noise, noise, size=shape), 0.0, 1.0)
    return np.ascontiguousarray(x)


# ---------------------------------------------------------------- file layouts

def s3dv_bytes(x):
    """S3DV file: magic, version 1, dtype 1 (float64), dims, C-order payload."""
    return b"S3DV" + struct.pack("<HHIII", 1, 1, *x.shape) + x.astype("<f8").tobytes()


def write_s3dv(path, x):
    with open(path, "wb") as fh:
        fh.write(s3dv_bytes(x))


def read_s3dv(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"S3DV" or len(data) < 20:
        raise CheckFailed(f"{path}: not an S3DV file")
    version, code, *dims = struct.unpack_from("<HHIII", data, 4)
    dtype = {0: "<f4", 1: "<f8"}.get(code)
    if version != 1 or dtype is None:
        raise CheckFailed(f"{path}: S3DV version {version} dtype code {code}")
    count = dims[0] * dims[1] * dims[2]
    if len(data) != 20 + count * np.dtype(dtype).itemsize:
        raise CheckFailed(f"{path}: S3DV size {len(data)} does not match dims {dims}")
    return np.frombuffer(data, dtype=dtype, offset=20).astype(np.float64).reshape(dims)


def parse_s3dm(data):
    """Parse S3DM bytes into a dict: method, dims, rank, factors, payload."""
    if data[:4] != b"S3DM" or len(data) < 24:
        raise CheckFailed("not an S3DM file")
    version, code, *dims, rank = struct.unpack_from("<HHIIII", data, 4)
    if version != 1 or code not in (0, 1, 2):
        raise CheckFailed(f"S3DM version {version} method code {code}")
    pos = 24

    def floats(count):
        nonlocal pos
        end = pos + 8 * count
        if end > len(data):
            raise CheckFailed("S3DM payload is truncated")
        out = np.frombuffer(data, dtype="<f8", count=count, offset=pos).astype(np.float64)
        pos = end
        return out

    model = {"method": ("s3dsvd", "tucker", "cpd")[code], "dims": tuple(dims), "rank": rank}
    model["factors"] = [floats(n * rank).reshape((n, rank), order="F") for n in dims]
    if code in (0, 1):
        model["core"] = floats(rank**3).reshape((rank, rank, rank))
        if code == 0:
            model["qsigma"] = floats(rank)
    else:
        model["weights"] = floats(rank)
        (model["seed"],) = struct.unpack_from("<Q", data, pos)
        pos += 8
    if pos != len(data):
        raise CheckFailed(f"S3DM has {len(data) - pos} trailing bytes")
    return model


def read_s3dm(path):
    with open(path, "rb") as fh:
        return parse_s3dm(fh.read())


# ----------------------------------------------------------------- expansions

def expand(model, j=None, rows=slice(None)):
    """Plain einsum expansion of a parsed model at level ``j`` (mode-1 ``rows``)."""
    u1, u2, u3 = model["factors"]
    if model["method"] == "cpd":
        return np.einsum("r,ir,jr,kr->ijk", model["weights"], u1[rows], u2, u3, optimize=True)
    j = model["rank"] if j is None else j
    return np.einsum(
        "abc,ia,jb,kc->ijk",
        model["core"][:j, :j, :j], u1[rows, :j], u2[:, :j], u3[:, :j],
        optimize=True,
    )


def unfolding_energies(x):
    """Squared singular values of the three mode unfoldings, non-increasing.

    Column order does not change singular values, so each unfolding is the
    plain reshape of ``x`` with mode m moved to the front.
    """
    return [
        np.linalg.svd(np.moveaxis(x, m, 0).reshape(x.shape[m], -1), compute_uv=False) ** 2
        for m in range(3)
    ]


def tails(energies, j):
    """``T_m(j)`` for m = 1..3: the squared singular values beyond the j-th."""
    return np.array([float(e[j:].sum()) for e in energies])


def _slabs(n):
    return [slice(i, min(i + ROW_CHUNK, n)) for i in range(0, n, ROW_CHUNK)]


def sq_err(x, y=None):
    """``||x - y||^2`` (``||x||^2`` without ``y``), summed over mode-1 slabs
    to keep temporaries small."""
    if y is None:
        return float(sum(np.sum(x[s] ** 2) for s in _slabs(x.shape[0])))
    return float(sum(np.sum((x[s] - y[s]) ** 2) for s in _slabs(x.shape[0])))


def psnr_of(peak, mse):
    return math.inf if mse == 0.0 else 10.0 * math.log10(peak**2 / mse)


def error_metrics(x, y):
    """MSE, PSNR (peak from ``x``) and relative error of ``y`` against ``x``."""
    err2 = sq_err(x, y)
    mse = err2 / x.size
    return {"mse": mse, "psnr_db": psnr_of(float(x.max()), mse),
            "rel_err": math.sqrt(err2 / sq_err(x)), "sq_err": err2}


# --------------------------------------------------------------------- checks

def check_value(what, got, want):
    got, want = float(got), float(want)
    if math.isinf(got) or math.isinf(want):
        close = got == want
    else:
        close = abs(got - want) <= METRIC_RTOL * abs(want)
    if not close:
        raise CheckFailed(f"{what}: program gives {got!r}, reference {want!r}")


def check_orthonormal(model):
    for m, u in enumerate(model["factors"], start=1):
        off = np.linalg.norm(u.T @ u - np.eye(u.shape[1]))
        if not off <= ORTHO_TOL:
            raise CheckFailed(f"factor {m}: ||U^T U - I|| = {off:.3e} > {ORTHO_TOL:g}")


def check_expansion(what, actual, model, j=None):
    """The program's reconstruction equals the einsum expansion of the file."""
    if actual.shape != model["dims"]:
        raise CheckFailed(f"{what}: shape {actual.shape}, model dims {model['dims']}")
    worst = scale = 0.0
    for s in _slabs(actual.shape[0]):
        ref = expand(model, j, s)
        worst = max(worst, float(np.max(np.abs(actual[s] - ref))))
        scale = max(scale, float(np.max(np.abs(ref))))
    if not worst <= EXPANSION_RTOL * scale:
        raise CheckFailed(
            f"{what}: differs from the expansion of the model file by {worst:.3e}"
            f" (max |x_j| {scale:.3e})"
        )


def check_truncation_bounds(what, err2, tail, lower_only=False):
    """``max_m T_m(j) <= err2 <= sum_m T_m(j)``, to within rounding."""
    lo, hi = float(np.max(tail)), float(np.sum(tail))
    slack = BOUND_RTOL * hi
    if not err2 >= lo - slack:
        raise CheckFailed(f"{what}: squared error {err2!r} below max_m T_m = {lo!r}")
    if not lower_only and not err2 <= hi + slack:
        raise CheckFailed(f"{what}: squared error {err2!r} above sum_m T_m = {hi!r}")


def check_per(pers):
    """PER never decreases with the level and reaches exactly 1 at level R."""
    for a, b in zip(pers, pers[1:]):
        if b < a:
            raise CheckFailed(f"per decreases from {a!r} to {b!r}")
    if pers[-1] != 1.0:
        raise CheckFailed(f"per at the top level is {pers[-1]!r}, not 1")


def check_sweep_row(row, peak, normx2, size):
    """``psnr_db`` and ``rel_err`` of a sweep row agree with its ``mse``."""
    what = f"sweep row {row['method']} k={row['k']}"
    mse = float(row["mse"])
    check_value(f"{what} psnr_db", float(row["psnr_db"]), psnr_of(peak, mse))
    check_value(f"{what} rel_err^2*||x||^2/N", float(row["rel_err"]) ** 2 * normx2 / size, mse)


def check_not_worse(what, better, worse):
    """``better <= worse`` allowing for rounding (tucker against s3dsvd)."""
    if not better <= worse * (1.0 + METRIC_RTOL):
        raise CheckFailed(f"{what}: {better!r} exceeds {worse!r}")


def check_ci(row):
    for key in ("psnr_ci", "mse_ci", "relerr_ci"):
        value = float(row[key])
        if not (math.isfinite(value) and value >= 0.0):
            raise CheckFailed(f"sweep row cpd k={row['k']}: {key} = {row[key]!r}")
