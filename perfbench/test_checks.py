"""Each benchmark check accepts a right output and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py

The models here are built with numpy alone (a truncated HOSVD and a random
CP model), so the test needs no ``volrank``.
"""

import math
import struct

import numpy as np
import pytest

import reference as ref

SHAPE = (12, 14, 16)
RANK = 6


def s3dm_bytes(method, factors, core=None, qsigma=None, weights=None, seed=0):
    """S3DM bytes per the README layout (the writer the checks are tested with)."""
    rank = factors[0].shape[1]
    code = {"s3dsvd": 0, "tucker": 1, "cpd": 2}[method]
    out = b"S3DM" + struct.pack("<HHIIII", 1, code, *(u.shape[0] for u in factors), rank)
    out += b"".join(np.asarray(u, "<f8").tobytes(order="F") for u in factors)
    if method == "cpd":
        return out + np.asarray(weights, "<f8").tobytes() + struct.pack("<Q", seed)
    out += np.ascontiguousarray(core, "<f8").tobytes()
    return out + (np.asarray(qsigma, "<f8").tobytes() if method == "s3dsvd" else b"")


@pytest.fixture(scope="module")
def volume():
    return ref.blob_volume(SHAPE, seed=3, noise=0.05)


@pytest.fixture(scope="module")
def hosvd(volume):
    """Truncated HOSVD of ``volume`` at RANK, parsed back from its file bytes."""
    factors = [
        np.linalg.svd(np.moveaxis(volume, m, 0).reshape(volume.shape[m], -1))[0][:, :RANK]
        for m in range(3)
    ]
    core = np.einsum("ijk,ia,jb,kc->abc", volume, *factors)
    qsigma = np.einsum("iii->i", core)
    return ref.parse_s3dm(s3dm_bytes("s3dsvd", factors, core, qsigma))


def truncated(model, j):
    u1, u2, u3 = (u[:, :j] for u in model["factors"])
    return np.einsum("abc,ia,jb,kc->ijk", model["core"][:j, :j, :j], u1, u2, u3)


def test_s3dv_round_trip(tmp_path, volume):
    path = tmp_path / "v.s3dv"
    ref.write_s3dv(path, volume)
    assert path.stat().st_size == 20 + volume.size * 8
    assert np.array_equal(ref.read_s3dv(path), volume)


def test_expansion_rejects_a_reconstruction_scaled_by_one_plus_1e_6(hosvd):
    for j in (1, 3, RANK):
        xj = truncated(hosvd, j)
        ref.check_expansion("exact", xj, hosvd, j)
        with pytest.raises(ref.CheckFailed):
            ref.check_expansion("scaled", xj * (1 + 1e-6), hosvd, j)


def test_checks_reject_a_model_file_with_two_factor_columns_swapped(hosvd, volume):
    u1 = hosvd["factors"][0].copy()
    u1[:, [0, 1]] = u1[:, [1, 0]]
    swapped = ref.parse_s3dm(
        s3dm_bytes("s3dsvd", [u1, *hosvd["factors"][1:]], hosvd["core"], hosvd["qsigma"])
    )
    ref.check_orthonormal(swapped)  # a swap keeps the columns orthonormal ...
    energies = ref.unfolding_energies(volume)
    j = 2
    xj = truncated(hosvd, j)
    ref.check_truncation_bounds("right", ref.sq_err(volume, xj), ref.tails(energies, j))
    # ... but the reconstruction of the right model no longer matches the file,
    with pytest.raises(ref.CheckFailed):
        ref.check_expansion("swapped file", xj, swapped, j)
    # and the file's own level-j expansion breaks the truncation bound.
    with pytest.raises(ref.CheckFailed):
        ref.check_truncation_bounds(
            "swapped file", ref.sq_err(volume, ref.expand(swapped, j)), ref.tails(energies, j)
        )


def test_truncation_bounds_hold_at_every_level(hosvd, volume):
    energies = ref.unfolding_energies(volume)
    for j in range(1, RANK + 1):
        ref.check_truncation_bounds(f"level {j}", ref.sq_err(volume, truncated(hosvd, j)),
                                    ref.tails(energies, j))


def sweep_row(volume, xhat, method="s3dsvd", k=RANK):
    return {"method": method, "k": str(k),
            **{key: repr(value) for key, value in ref.error_metrics(volume, xhat).items()}}


def test_sweep_row_rejects_a_psnr_that_disagrees_with_its_mse(hosvd, volume):
    row = sweep_row(volume, truncated(hosvd, 3))
    args = (float(volume.max()), ref.sq_err(volume), volume.size)
    ref.check_sweep_row(row, *args)
    with pytest.raises(ref.CheckFailed):
        ref.check_sweep_row({**row, "psnr_db": repr(float(row["psnr_db"]) + 1e-3)}, *args)
    with pytest.raises(ref.CheckFailed):
        ref.check_sweep_row({**row, "rel_err": repr(float(row["rel_err"]) * 1.001)}, *args)


def test_cpd_bound_rejects_an_mse_below_eckart_young(volume):
    energies = ref.unfolding_energies(volume)
    k = 3
    rng = np.random.default_rng(0)
    factors = [rng.random((n, k)) for n in volume.shape]
    cp = ref.parse_s3dm(s3dm_bytes("cpd", factors, weights=np.ones(k), seed=7))
    err2 = ref.sq_err(volume, ref.expand(cp))
    ref.check_truncation_bounds("cpd", err2, ref.tails(energies, k), lower_only=True)
    bound = float(np.max(ref.tails(energies, k)))
    with pytest.raises(ref.CheckFailed):
        ref.check_truncation_bounds("cpd", 0.5 * bound, ref.tails(energies, k), lower_only=True)


def test_metric_formulas_reject_a_wrong_value(hosvd, volume):
    xj = truncated(hosvd, 2)
    want = ref.error_metrics(volume, xj)
    mse = float(np.mean((volume - xj) ** 2))
    assert math.isclose(want["mse"], mse, rel_tol=1e-12)
    assert math.isclose(want["psnr_db"], 10 * math.log10(volume.max() ** 2 / mse), rel_tol=1e-12)
    assert math.isclose(want["rel_err"], np.linalg.norm(volume - xj) / np.linalg.norm(volume),
                        rel_tol=1e-12)
    ref.check_value("mse", mse, want["mse"])
    with pytest.raises(ref.CheckFailed):
        ref.check_value("mse", mse * (1 + 1e-6), want["mse"])


def test_per_ci_and_order_checks_reject_wrong_values():
    ref.check_per([0.5, 0.9, 1.0])
    for bad in ([0.5, 0.4, 1.0], [0.5, 0.9, 0.999]):
        with pytest.raises(ref.CheckFailed):
            ref.check_per(bad)
    ref.check_ci({"k": "8", "psnr_ci": "0.3", "mse_ci": "0.0", "relerr_ci": "1e-4"})
    for value in ("nan", "inf", "-0.1"):
        with pytest.raises(ref.CheckFailed):
            ref.check_ci({"k": "8", "psnr_ci": value, "mse_ci": "0.0", "relerr_ci": "1e-4"})
    ref.check_not_worse("tucker", 0.1, 0.1)
    with pytest.raises(ref.CheckFailed):
        ref.check_not_worse("tucker", 0.1 * (1 + 1e-6), 0.1)


def test_orthonormality_rejects_a_scaled_column(hosvd):
    factors = [u.copy() for u in hosvd["factors"]]
    factors[2][:, 0] *= 1 + 1e-9
    bad = ref.parse_s3dm(s3dm_bytes("s3dsvd", factors, hosvd["core"], hosvd["qsigma"]))
    ref.check_orthonormal(hosvd)
    with pytest.raises(ref.CheckFailed):
        ref.check_orthonormal(bad)
