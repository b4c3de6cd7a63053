import csv
import gc
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import volrank
from volrank import baselines, cli, metrics, s3dsvd, volume_io


def run_cli(*args):
    return cli.main([str(a) for a in args])


def forbid_fits(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fitted")

    # A sweep fits from s3dsvd._bases, a standalone fit through decompose.
    for module in (s3dsvd, baselines):
        monkeypatch.setattr(module, "_bases", no_fit)
    monkeypatch.setattr(s3dsvd, "decompose", no_fit)
    monkeypatch.setattr(baselines, "decompose", no_fit)
    monkeypatch.setattr(baselines, "cpd_decompose", no_fit)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def blob_volume(tmp_path):
    path = tmp_path / "blobs.s3dv"
    code = run_cli("gen", "--kind", "blobs", "--dims", "12,13,14", "--seed", "2",
                   "--blobs", "6", "--output", path)
    assert code == 0
    return path


class TestGen:
    def test_file_size_is_header_plus_payload(self, tmp_path):
        out = tmp_path / "v.s3dv"
        assert run_cli("gen", "--kind", "blobs", "--dims", "64,64,64",
                       "--seed", "0", "--output", out) == 0
        assert out.stat().st_size == 20 + 64**3 * 8

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.s3dv", tmp_path / "b.s3dv"
        for out in (a, b):
            assert run_cli("gen", "--kind", "multirank", "--dims", "10,11,12",
                           "--seed", "3", "--rho", "3", "--output", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rho_exceeding_min_dims_exits_2(self, tmp_path, capsys):
        code = run_cli("gen", "--kind", "multirank", "--dims", "4,8,8",
                       "--rho", "6", "--output", tmp_path / "x.s3dv")
        assert code == 2
        assert "volrank: error:" in capsys.readouterr().err

    def test_bad_dims_exits_2(self, tmp_path):
        assert run_cli("gen", "--kind", "blobs", "--dims", "4,8",
                       "--output", tmp_path / "x.s3dv") == 2

    # gen_synthetic alone checks the dims; text that is no integer list
    # stays an argparse usage error.
    @pytest.mark.parametrize(
        "dims, message",
        [("4,8", "ShapeError: dims must be three positive integers, got (4, 8)"),
         ("0,4,4", "ShapeError: dims must be three positive integers, got (0, 4, 4)"),
         ("", None)],
    )
    def test_dims_rule_is_one_error_line(self, tmp_path, capsys, dims, message):
        out = tmp_path / "x.s3dv"
        assert run_cli("gen", "--kind", "blobs", "--dims", dims, "--output", out) == 2
        err = capsys.readouterr().err
        if message is None:
            assert "argument --dims: expected at least one integer" in err
        else:
            assert err == f"volrank: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-inf", "1e308"])
    def test_noise_numpy_cannot_draw_exits_2(self, tmp_path, capsys, noise):
        out = tmp_path / "x.s3dv"
        assert run_cli("gen", "--kind", "blobs_noisy", "--dims", "4,4,4",
                       f"--noise={noise}", "--output", out) == 2
        assert capsys.readouterr().err == (
            "volrank: error: ValueError: noise must satisfy 0 <= 2 * noise < inf,"
            f" got {float(noise)}\n"
        )
        assert not out.exists()


class TestDecompose:
    def test_s3dsvd_on_multirank(self, tmp_path, capsys):
        vol = tmp_path / "v.s3dv"
        run_cli("gen", "--kind", "multirank", "--dims", "16,18,20", "--seed", "1",
                "--rho", "4", "--output", vol)
        model_path = tmp_path / "m.s3dm"
        assert run_cli("decompose", "--input", vol, "--method", "s3dsvd",
                       "--rank", "8", "--output", model_path) == 0
        assert "elapsed_s=" in capsys.readouterr().err
        x = volume_io.read_volume(vol)
        model = volume_io.read_model(model_path)
        assert metrics.rel_err(x, s3dsvd.reconstruct(model, 4)) < 1e-10

    def test_cpd_seed_determinism(self, blob_volume, tmp_path, capsys):
        a, b = tmp_path / "a.s3dm", tmp_path / "b.s3dm"
        for out in (a, b):
            assert run_cli("decompose", "--input", blob_volume, "--method", "cpd",
                           "--rank", "2", "--seed", "7", "--output", out) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "iterations=" in capsys.readouterr().err

    def test_cpd_seed_beyond_u64_exits_2_before_fitting(self, blob_volume, tmp_path,
                                                         capsys):
        out = tmp_path / "m.s3dm"
        assert run_cli("decompose", "--input", blob_volume, "--method", "cpd",
                       "--rank", "2", "--seed", str(2**64), "--output", out) == 2
        assert capsys.readouterr().err == (
            "volrank: error: ValueError: seed must satisfy"
            f" 0 <= seed <= {2**64 - 1}, got {2**64}\n"
        )
        assert not out.exists()

    def test_rank_exceeding_min_dims_exits_2(self, blob_volume, tmp_path, capsys):
        code = run_cli("decompose", "--input", blob_volume, "--method", "s3dsvd",
                       "--rank", "13", "--output", tmp_path / "m.s3dm")
        assert code == 2
        assert "12" in capsys.readouterr().err  # message names the limit

    def test_missing_input_exits_5(self, tmp_path):
        assert run_cli("decompose", "--input", tmp_path / "missing.s3dv",
                       "--method", "s3dsvd", "--rank", "2",
                       "--output", tmp_path / "m.s3dm") == 5

    def test_corrupt_input_exits_3(self, tmp_path):
        bad = tmp_path / "bad.s3dv"
        bad.write_bytes(b"XXXX" + b"\x00" * 32)
        assert run_cli("decompose", "--input", bad, "--method", "s3dsvd",
                       "--rank", "2", "--output", tmp_path / "m.s3dm") == 3

    def test_non_finite_volume_exits_4(self, tmp_path):
        data = bytearray(volume_io.volume_to_bytes(np.ones((2, 2, 2))))
        struct.pack_into("<d", data, 20, math.nan)
        bad = tmp_path / "nan.s3dv"
        bad.write_bytes(bytes(data))
        assert run_cli("decompose", "--input", bad, "--method", "s3dsvd",
                       "--rank", "2", "--output", tmp_path / "m.s3dm") == 4


class TestReconstruct:
    def test_exact_rank_roundtrip(self, tmp_path):
        vol = tmp_path / "v.s3dv"
        run_cli("gen", "--kind", "multirank", "--dims", "12,14,16", "--seed", "4",
                "--rho", "3", "--output", vol)
        model_path = tmp_path / "m.s3dm"
        run_cli("decompose", "--input", vol, "--method", "s3dsvd", "--rank", "3",
                "--output", model_path)
        recon = tmp_path / "r.s3dv"
        assert run_cli("reconstruct", "--input", model_path, "--k", "3",
                       "--output", recon) == 0
        x = volume_io.read_volume(vol)
        assert metrics.rel_err(x, volume_io.read_volume(recon)) < 1e-10

    def test_k_zero_exits_2(self, blob_volume, tmp_path):
        model_path = tmp_path / "m.s3dm"
        run_cli("decompose", "--input", blob_volume, "--method", "s3dsvd",
                "--rank", "4", "--output", model_path)
        assert run_cli("reconstruct", "--input", model_path, "--k", "0",
                       "--output", tmp_path / "r.s3dv") == 2

    def test_cpd_ignores_k_with_warning(self, blob_volume, tmp_path, capsys):
        model_path = tmp_path / "m.s3dm"
        run_cli("decompose", "--input", blob_volume, "--method", "cpd",
                "--rank", "2", "--output", model_path)
        capsys.readouterr()
        assert run_cli("reconstruct", "--input", model_path, "--k", "1",
                       "--output", tmp_path / "r.s3dv") == 0
        assert "warning" in capsys.readouterr().err

    def test_slices_written(self, blob_volume, tmp_path):
        model_path = tmp_path / "m.s3dm"
        run_cli("decompose", "--input", blob_volume, "--method", "s3dsvd",
                "--rank", "4", "--output", model_path)
        recon = tmp_path / "r.s3dv"
        assert run_cli("reconstruct", "--input", model_path, "--k", "4",
                       "--output", recon, "--slices", "0,5") == 0
        xhat = volume_io.read_volume(recon)
        for index in (0, 5):
            lines = (tmp_path / f"r.s3dv.slice{index}.txt").read_text().splitlines()
            assert len(lines) == xhat.shape[0]
            values = [float(v) for v in lines[0].split()]
            assert values == pytest.approx(list(xhat[0, :, index]), abs=0)

    def test_slice_out_of_range_exits_2(self, blob_volume, tmp_path):
        model_path = tmp_path / "m.s3dm"
        run_cli("decompose", "--input", blob_volume, "--method", "s3dsvd",
                "--rank", "2", "--output", model_path)
        assert run_cli("reconstruct", "--input", model_path, "--k", "2",
                       "--output", tmp_path / "r.s3dv", "--slices", "99") == 2

    def test_out_of_range_slice_writes_no_file(self, blob_volume, tmp_path, capsys):
        model_path = tmp_path / "m.s3dm"
        run_cli("decompose", "--input", blob_volume, "--method", "s3dsvd",
                "--rank", "3", "--output", model_path)
        capsys.readouterr()
        assert run_cli("reconstruct", "--input", model_path, "--k", "3",
                       "--output", tmp_path / "r.s3dv", "--slices", "0,5,999") == 2
        assert capsys.readouterr().err == (
            "volrank: error: ValueError: slice index 999 out of range for n3=14\n"
        )
        assert list(tmp_path.glob("r.s3dv*")) == []

    @pytest.mark.parametrize(
        "slices, message",
        [("-1", "ValueError: slice index -1 out of range for n3=14"),
         ("3,-14", "ValueError: slice index -14 out of range for n3=14"), ("", None)],
    )
    def test_negative_or_empty_slices_write_no_file(self, blob_volume, tmp_path, capsys,
                                                    slices, message):
        model_path = tmp_path / "m.s3dm"
        run_cli("decompose", "--input", blob_volume, "--method", "s3dsvd",
                "--rank", "3", "--output", model_path)
        capsys.readouterr()
        assert run_cli("reconstruct", "--input", model_path, "--k", "3",
                       "--output", tmp_path / "r.s3dv", f"--slices={slices}") == 2
        err = capsys.readouterr().err
        if message is None:
            assert "argument --slices: expected at least one integer" in err
        else:
            assert err == f"volrank: error: {message}\n"
        assert list(tmp_path.glob("r.s3dv*")) == []


class TestMetricsCommand:
    def test_model_and_recon_paths_agree(self, blob_volume, tmp_path):
        model_path = tmp_path / "m.s3dm"
        run_cli("decompose", "--input", blob_volume, "--method", "s3dsvd",
                "--rank", "6", "--output", model_path)
        recon = tmp_path / "r.s3dv"
        run_cli("reconstruct", "--input", model_path, "--k", "6", "--output", recon)
        csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("metrics", "--input", blob_volume, "--model", model_path,
                       "--k", "6", "--csv", csv_a) == 0
        assert run_cli("metrics", "--input", blob_volume, "--recon", recon,
                       "--csv", csv_b) == 0
        row_a, row_b = read_csv(csv_a)[0], read_csv(csv_b)[0]
        assert row_a["method"] == "s3dsvd"
        assert row_b["method"] == "recon"
        assert float(row_a["psnr_db"]) == float(row_b["psnr_db"])
        assert float(row_a["per"]) <= 1.0
        assert row_b["per"] == ""

    def test_values_match_library(self, blob_volume, tmp_path):
        model_path = tmp_path / "m.s3dm"
        run_cli("decompose", "--input", blob_volume, "--method", "s3dsvd",
                "--rank", "4", "--output", model_path)
        out = tmp_path / "m.csv"
        assert run_cli("metrics", "--input", blob_volume, "--model", model_path,
                       "--k", "3", "--csv", out) == 0
        row = read_csv(out)[0]
        x = volume_io.read_volume(blob_volume)
        model = volume_io.read_model(model_path)
        xhat = s3dsvd.reconstruct(model, 3)
        assert float(row["psnr_db"]) == metrics.psnr(x, xhat)
        assert float(row["mse"]) == metrics.mse(x, xhat)
        assert float(row["rel_err"]) == metrics.rel_err(x, xhat)
        assert float(row["per"]) == metrics.per(model, 3)

    def test_no_timing_drops_column(self, blob_volume, tmp_path):
        model_path = tmp_path / "m.s3dm"
        run_cli("decompose", "--input", blob_volume, "--method", "s3dsvd",
                "--rank", "3", "--output", model_path)
        out = tmp_path / "m.csv"
        assert run_cli("metrics", "--input", blob_volume, "--model", model_path,
                       "--k", "2", "--csv", out, "--no-timing") == 0
        header = out.read_text().splitlines()[0]
        assert header == "method,k,psnr_db,mse,rel_err,per"

    def test_both_sources_rejected(self, blob_volume, tmp_path):
        assert run_cli("metrics", "--input", blob_volume, "--recon", blob_volume,
                       "--model", blob_volume) == 2

    @pytest.mark.parametrize("method,k,label_k", [
        ("s3dsvd", "2", "2"), ("tucker", "2", "2"), ("cpd", None, "3"), ("cpd", "1", "3"),
    ])
    def test_model_kinds_label_their_rows(self, blob_volume, tmp_path, capsys,
                                          method, k, label_k):
        model_path = tmp_path / "m.s3dm"
        assert run_cli("decompose", "--input", blob_volume, "--method", method,
                       "--rank", "3", "--output", model_path) == 0
        out = tmp_path / "m.csv"
        k_args = () if k is None else ("--k", k)
        capsys.readouterr()
        assert run_cli("metrics", "--input", blob_volume, "--model", model_path,
                       *k_args, "--csv", out, "--no-timing") == 0
        warning = "volrank: warning: k is ignored for cpd models\n"
        assert capsys.readouterr().err == (warning if k and method == "cpd" else "")
        row = read_csv(out)[0]
        assert (row["method"], row["k"]) == (method, label_k)
        assert (row["per"] == "") == (method != "s3dsvd")

    @pytest.mark.parametrize("method", ["s3dsvd", "tucker"])
    def test_missing_k_exits_2(self, blob_volume, tmp_path, capsys, method):
        model_path = tmp_path / "m.s3dm"
        run_cli("decompose", "--input", blob_volume, "--method", method,
                "--rank", "2", "--output", model_path)
        capsys.readouterr()
        assert run_cli("metrics", "--input", blob_volume, "--model", model_path) == 2
        assert "--k is required" in capsys.readouterr().err

    def test_all_zero_model_reconstructs_but_does_not_score(self, tmp_path, capsys):
        # Every qsigma of an all-zero volume is zero, so PER is undefined;
        # reconstruct never asks for it, metrics does.
        vol, model_path = tmp_path / "z.s3dv", tmp_path / "z.s3dm"
        x = np.zeros((4, 5, 6))
        volume_io.write_volume(vol, x)
        volume_io.write_model(model_path, s3dsvd.decompose(x, 2))
        recon = tmp_path / "r.s3dv"
        assert run_cli("reconstruct", "--input", model_path, "--k", "1",
                       "--output", recon) == 0
        assert np.array_equal(volume_io.read_volume(recon), x)
        capsys.readouterr()
        assert run_cli("metrics", "--input", vol, "--model", model_path,
                       "--k", "1") == 4
        assert "DegenerateInputError" in capsys.readouterr().err

    def test_row_goes_to_stdout_without_csv(self, blob_volume, capsys):
        assert run_cli("metrics", "--input", blob_volume, "--recon", blob_volume,
                       "--no-timing") == 0
        assert capsys.readouterr().out == (
            "method,k,psnr_db,mse,rel_err,per\nrecon,0,inf,0.0,0.0,\n"
        )

    def test_infinite_psnr_spelled_inf(self, blob_volume, tmp_path):
        out = tmp_path / "m.csv"
        assert run_cli("metrics", "--input", blob_volume, "--recon", blob_volume,
                       "--csv", out) == 0
        row = read_csv(out)[0]
        assert row["psnr_db"] == "inf"
        assert float(row["mse"]) == 0.0


class TestSweep:
    def test_csv_structure_and_monotone_columns(self, blob_volume, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--input", blob_volume, "--method", "s3dsvd",
                       "--ks", "2,4,6", "--csv", out) == 0
        header = out.read_text().splitlines()[0]
        assert header == "method,k,psnr_db,mse,rel_err,per,time_s"
        rows = read_csv(out)
        assert [row["k"] for row in rows] == ["2", "4", "6"]
        pers = [float(row["per"]) for row in rows]
        psnrs = [float(row["psnr_db"]) for row in rows]
        assert all(b >= a for a, b in zip(pers, pers[1:]))
        assert all(b >= a for a, b in zip(psnrs, psnrs[1:]))

    def test_ci_columns_only_with_cpd(self, blob_volume, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--input", blob_volume, "--method", "s3dsvd,cpd",
                       "--ks", "2,3", "--seeds", "0,1,2", "--csv", out) == 0
        header = out.read_text().splitlines()[0]
        assert header == ("method,k,psnr_db,mse,rel_err,per,time_s,"
                          "psnr_ci,mse_ci,relerr_ci,time_ci")
        rows = read_csv(out)
        assert [row["method"] for row in rows] == ["s3dsvd", "s3dsvd", "cpd", "cpd"]
        for row in rows:
            if row["method"] == "cpd":
                assert row["per"] == ""
                assert float(row["psnr_ci"]) >= 0.0
            else:
                assert row["psnr_ci"] == ""

    def test_csv_byte_stable_without_timing(self, blob_volume, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run_cli("sweep", "--input", blob_volume,
                           "--method", "s3dsvd,tucker,cpd", "--ks", "2,3",
                           "--seeds", "0,1", "--csv", out, "--no-timing") == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_threaded_sweep_matches_serial(self, blob_volume, tmp_path, monkeypatch):
        serial, threaded = tmp_path / "s.csv", tmp_path / "t.csv"
        monkeypatch.setenv("VOLRANK_THREADS", "1")
        assert run_cli("sweep", "--input", blob_volume, "--method", "cpd",
                       "--ks", "2", "--seeds", "0,1,2,3", "--csv", serial,
                       "--no-timing") == 0
        monkeypatch.setenv("VOLRANK_THREADS", "4")
        assert run_cli("sweep", "--input", blob_volume, "--method", "cpd",
                       "--ks", "2", "--seeds", "0,1,2,3", "--csv", threaded,
                       "--no-timing") == 0
        assert serial.read_bytes() == threaded.read_bytes()

    def test_threaded_sweep_matches_serial_on_a_large_volume(self, tmp_path, monkeypatch):
        # 48^3 entries is past the size at which BLAS may split one dot
        # product, which mse and rel_err both take, across its threads.
        volume = tmp_path / "blobs48.s3dv"
        assert run_cli("gen", "--kind", "blobs", "--dims", "48,48,48", "--seed", "3",
                       "--output", volume) == 0
        outs = []
        for threads in (None, "2"):
            if threads is None:
                monkeypatch.delenv("VOLRANK_THREADS", raising=False)
            else:
                monkeypatch.setenv("VOLRANK_THREADS", threads)
            out = tmp_path / f"threads-{threads}.csv"
            assert run_cli("sweep", "--input", volume, "--method", "s3dsvd,tucker,cpd",
                           "--ks", "2", "--seeds", "0,1,2,3", "--csv", out,
                           "--no-timing") == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_matches_single_shot_pipeline(self, blob_volume, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("sweep", "--input", blob_volume, "--method", "s3dsvd",
                "--ks", "2,4", "--csv", out)
        model_path = tmp_path / "m.s3dm"
        run_cli("decompose", "--input", blob_volume, "--method", "s3dsvd",
                "--rank", "4", "--output", model_path)
        single = tmp_path / "single.csv"
        run_cli("metrics", "--input", blob_volume, "--model", model_path,
                "--k", "2", "--csv", single)
        sweep_row = read_csv(out)[0]
        single_row = read_csv(single)[0]
        for col in ("psnr_db", "mse", "rel_err", "per"):
            assert abs(float(sweep_row[col]) - float(single_row[col])) < 1e-12

    def test_s3dsvd_rows_share_one_fit_time(self, blob_volume):
        # Every row is charged its fit time only, as tucker and cpd rows are.
        x = volume_io.read_volume(blob_volume)
        rows = cli.run_sweep(x, ["s3dsvd"], [2, 4, 6]).rows
        times = {row["time_s"] for row in rows}
        assert len(rows) == 3 and len(times) == 1

    def test_tucker_rows_equal_standalone_fits(self, blob_volume, monkeypatch):
        # Every k starts HOOI from decompose(x, k), cut from the one set of bases.
        x = volume_io.read_volume(blob_volume)
        fitted = {}
        hooi = baselines._hooi

        def record(x, hosvd, *args, **kwargs):
            fitted[hosvd.rank] = hooi(x, hosvd, *args, **kwargs)
            return fitted[hosvd.rank]

        monkeypatch.setattr(baselines, "_hooi", record)
        cli.run_sweep(x, ["s3dsvd", "tucker"], [2, 3, 5])
        assert sorted(fitted) == [2, 3, 5]
        for k, model in fitted.items():
            alone = baselines.tucker_decompose(x, k)
            assert model.rank == alone.rank == k
            for got, want in zip(model.factors, alone.factors):
                assert np.array_equal(got, want)
            assert np.array_equal(model.core, alone.core)
            assert model.fit_history == alone.fit_history

    def test_sweep_forms_no_reconstruction(self, blob_volume, monkeypatch):
        # s3dsvd and tucker rows are scored from slabs of their expansion:
        # each is the score of its reconstruction, which no row forms.
        x = volume_io.read_volume(blob_volume)
        ks = [1, 2, 3, 4]
        hosvd = s3dsvd.decompose(x, max(ks))
        want = [metrics.score(x, s3dsvd.reconstruct(hosvd, k), "s3dsvd", k, metrics.per(hosvd, k))
                for k in ks]
        want += [metrics.score(x, baselines.tucker_reconstruct(
                     baselines._hooi(x, s3dsvd.decompose(x, k))), "tucker", k) for k in ks]

        def forbidden(*args):
            raise AssertionError("the sweep formed a reconstruction")

        monkeypatch.setattr(s3dsvd, "reconstruct", forbidden)
        monkeypatch.setattr(baselines, "tucker_reconstruct", forbidden)
        rows = cli.run_sweep(x, ["s3dsvd", "tucker"], ks).rows
        assert [{**row, "time_s": None} for row in rows] == want

    def test_rows_are_those_of_the_float64_volume(self):
        # Every row is scored against as_tensor3(x), the volume each fit sees.
        x = volume_io.gen_synthetic("blobs_noisy", (12, 13, 14), seed=1)
        x32 = x.astype(np.float32)

        def untimed(volume):
            rows = cli.run_sweep(volume, ["s3dsvd", "tucker", "cpd"], [3], seeds=(0, 1)).rows
            return [{**row, "time_s": None, "time_ci": None} for row in rows]

        assert untimed(x.tolist()) == untimed(x)
        assert untimed(x32) == untimed(x32.astype(np.float64))

    def test_cpd_rows_are_standalone_studies_in_any_method_order(self, blob_volume):
        x = volume_io.read_volume(blob_volume)
        ks, seeds = [2, 3, 5], (0, 1, 2)

        def untimed(methods):
            rows = cli.run_sweep(x, methods, ks, seeds=seeds).rows
            return {(row["method"], row["k"]): {**row, "time_s": None, "time_ci": None}
                    for row in rows}

        rows = untimed(["s3dsvd", "tucker", "cpd"])
        assert rows == untimed(["cpd", "tucker", "s3dsvd"])
        for k in ks:
            study = baselines.cpd_study(x, k, seeds)
            for key in ("psnr_db", "mse", "rel_err"):
                assert rows["cpd", k][key] == study.mean[key]
                assert rows["cpd", k][cli._CI_COLUMNS[key]] == study.ci_halfwidth[key]

    def test_sweep_allocates_less_than_a_volume_beyond_x(self):
        # x is allocated before tracing starts, so the peak is the sweep's own.
        x = volume_io.gen_synthetic("blobs_noisy", (64, 64, 64), seed=4)
        tracemalloc.start()
        try:
            cli.run_sweep(x, ["s3dsvd", "tucker"], [4, 8, 16])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes

    # Every method slices one _bases(x): s3dsvd and tucker share its cut at
    # max(ks), tucker cuts each lower k, and each cpd study cuts its
    # compression once, at min(2k, min(x.shape)), for all its seeds.
    @pytest.mark.parametrize(
        "methods, want",
        [(["s3dsvd", "tucker"], [4, 2]), (["tucker"], [4, 2]),
         (["tucker", "cpd", "s3dsvd"], [4, 2, 4, 8]), (["cpd"], [4, 8])],
    )
    def test_one_shared_decompose_and_one_per_cpd_study(self, blob_volume, monkeypatch,
                                                        methods, want):
        x = volume_io.read_volume(blob_volume)
        bases, ranks = [], []
        find, cut = s3dsvd._bases, s3dsvd._truncate

        def counted_bases(x):
            bases.append(x.shape)
            return find(x)

        def counted_cut(x, b, r):
            ranks.append(r)
            return cut(x, b, r)

        for module in (s3dsvd, baselines):
            monkeypatch.setattr(module, "_bases", counted_bases)
            monkeypatch.setattr(module, "_truncate", counted_cut)
        rows = cli.run_sweep(x, methods, [2, 4], seeds=(0, 1)).rows
        assert len(rows) == 2 * len(methods)
        assert bases == [x.shape]
        assert ranks == want

    def test_tucker_rows_carry_the_whole_decompose(self, blob_volume, monkeypatch):
        # Slow bases make their share of each row plain to see.
        x = volume_io.read_volume(blob_volume)
        find = s3dsvd._bases

        def slow(x):
            time.sleep(0.2)
            return find(x)

        monkeypatch.setattr(s3dsvd, "_bases", slow)
        rows = cli.run_sweep(x, ["s3dsvd", "tucker"], [2, 4, 6]).rows
        decompose_s = sum(row["time_s"] for row in rows if row["method"] == "s3dsvd")
        tucker = [row["time_s"] for row in rows if row["method"] == "tucker"]
        assert len(tucker) == 3
        assert all(t >= decompose_s for t in tucker)

    def test_csv_identical_across_volrank_threads(self, blob_volume, tmp_path,
                                                  monkeypatch):
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("VOLRANK_THREADS", threads)
            out = tmp_path / f"threads-{threads}.csv"
            assert run_cli("sweep", "--input", blob_volume,
                           "--method", "s3dsvd,tucker,cpd", "--ks", "2,3,5",
                           "--seeds", "0,1,2", "--csv", out, "--no-timing") == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    # max(ks) is checked before any row, so cpd listed first fits nothing,
    # and every method list gets the one message.
    @pytest.mark.parametrize("methods", ["s3dsvd,tucker", "tucker", "cpd,s3dsvd"])
    def test_max_ks_beyond_volume_exits_2(self, blob_volume, tmp_path, capsys,
                                         methods):
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--input", blob_volume, "--method", methods,
                       "--ks", "2,13", "--csv", out) == 2
        assert capsys.readouterr().err == (
            "volrank: error: ValueError: k must satisfy 1 <= k <= 12, got 13\n"
        )
        assert not out.exists()

    # cpd_study's seed rule, and for a cpd-only sweep the max(ks) rule, run
    # before any method is fitted.
    @pytest.mark.parametrize(
        "methods,ks,seeds,message",
        [
            ("s3dsvd,tucker,cpd", "2,4", "0,18446744073709551616",
             "seed must satisfy 0 <= seed <= 18446744073709551615,"
             " got 18446744073709551616"),
            ("cpd", "2,100", "0,1", "k must satisfy 1 <= k <= 12, got 100"),
        ],
        ids=["seed-beyond-u64", "cpd-rank-beyond-volume"],
    )
    def test_cpd_rules_exit_2_before_any_fit(self, blob_volume, tmp_path, capsys,
                                             monkeypatch, methods, ks, seeds, message):
        forbid_fits(monkeypatch)
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--input", blob_volume, "--method", methods,
                       "--ks", ks, "--seeds", seeds, "--csv", out) == 2
        assert capsys.readouterr().err == f"volrank: error: ValueError: {message}\n"
        assert not out.exists()

    def test_empty_seeds_fail_before_any_fit(self, blob_volume, monkeypatch):
        # Library callers reach run_sweep without the CLI's --seeds parsing.
        x = volume_io.read_volume(blob_volume)
        calls = []
        find = s3dsvd._bases

        def counted(x):
            calls.append(x.shape)
            return find(x)

        monkeypatch.setattr(s3dsvd, "_bases", counted)
        log = io.StringIO()
        with pytest.raises(ValueError, match="seeds must be a non-empty sequence"):
            cli.run_sweep(x, ["s3dsvd", "tucker", "cpd"], [2, 4], seeds=(), log=log)
        assert calls == []
        assert log.getvalue() == ""

    # One rule for the library and the CLI: the grid and the seeds are
    # checked whatever the methods, before any fit and any log line.
    @pytest.mark.parametrize(
        "methods, ks, seeds, message",
        [
            ([], [2], (0,), "methods must not be empty"),
            (["foo"], [2], (0,), "unknown method 'foo'; expected one of s3dsvd, tucker, cpd"),
            (["s3dsvd", "s3dsvd"], [2], (0,), "methods must be distinct, got s3dsvd, s3dsvd"),
            (["s3dsvd"], [], (0,), "ks must not be empty"),
            (["s3dsvd"], [0, 2], (0,), "ks must be at least 1, got 0"),
            (["cpd"], [4, 2], (0,), "ks must be strictly increasing, got 4, 2"),
            (["tucker"], [2, 2], (0,), "ks must be strictly increasing, got 2, 2"),
            (["s3dsvd", "tucker"], [2], (1, 1), "seeds must be distinct, got 1, 1"),
            (["s3dsvd", "cpd"], [2], (1, 1), "seeds must be distinct, got 1, 1"),
        ],
    )
    def test_bad_grid_fails_before_any_fit(self, blob_volume, monkeypatch, methods, ks,
                                           seeds, message):
        x = volume_io.read_volume(blob_volume)
        forbid_fits(monkeypatch)
        log = io.StringIO()
        with pytest.raises(ValueError) as info:
            cli.run_sweep(x, methods, ks, seeds=seeds, log=log)
        assert str(info.value) == message
        assert log.getvalue() == ""

    # Each value the old argparse validators refused still exits 2 and
    # writes nothing; a value rule prints the one error line, and text that
    # is no integer list stays an argparse usage error.
    @pytest.mark.parametrize(
        "flags, message",
        [
            ({"--ks": ""}, None),
            ({"--ks": "0"}, "ks must be at least 1, got 0"),
            ({"--ks": "4,2"}, "ks must be strictly increasing, got 4, 2"),
            ({"--ks": "2,2"}, "ks must be strictly increasing, got 2, 2"),
            ({"--seeds": ""}, None),
            ({"--seeds": "0,-1"},
             "seed must satisfy 0 <= seed <= 18446744073709551615, got -1"),
            ({"--seeds": "5,5"}, "seeds must be distinct, got 5, 5"),
            ({"--seeds": "5,5", "--method": "s3dsvd"}, "seeds must be distinct, got 5, 5"),
            ({"--seeds": "0,x"}, None),
            ({"--method": ","}, "methods must not be empty"),
            ({"--method": "hosvd"}, "unknown method 'hosvd'; expected one of s3dsvd, tucker, cpd"),
            ({"--method": "s3dsvd,s3dsvd"}, "methods must be distinct, got s3dsvd, s3dsvd"),
        ],
    )
    def test_each_value_rule_is_one_error_line(self, blob_volume, tmp_path, capsys,
                                               monkeypatch, flags, message):
        forbid_fits(monkeypatch)
        out = tmp_path / "s.csv"
        args = {"--method": "cpd", "--ks": "2", "--seeds": "0", **flags}
        assert run_cli("sweep", "--input", blob_volume, "--csv", out,
                       *[f"{flag}={value}" for flag, value in args.items()]) == 2
        err = capsys.readouterr().err
        if message is None:
            flag = next(iter(flags))
            assert f"error: argument {flag}: expected" in err
        else:
            assert err == f"volrank: error: ValueError: {message}\n"
        assert not out.exists()

    def test_bad_flag_fails_before_input_is_read(self, tmp_path, capsys):
        assert run_cli("sweep", "--input", tmp_path / "missing.s3dv", "--method", "s3dsvd",
                       "--ks", "4,2") == 2
        assert capsys.readouterr().err == (
            "volrank: error: ValueError: ks must be strictly increasing, got 4, 2\n"
        )

    def test_per_threshold_reported_on_stderr(self, blob_volume, tmp_path, capsys):
        run_cli("sweep", "--input", blob_volume, "--method", "s3dsvd",
                "--ks", "2,4", "--csv", tmp_path / "s.csv")
        err = capsys.readouterr().err
        assert "per threshold" in err
        assert "first reached at k=" in err

    def test_empty_ks_exits_2(self, blob_volume, tmp_path):
        assert run_cli("sweep", "--input", blob_volume, "--method", "s3dsvd",
                       "--ks", "", "--csv", tmp_path / "s.csv") == 2

    def test_non_increasing_ks_exits_2(self, blob_volume, tmp_path):
        assert run_cli("sweep", "--input", blob_volume, "--method", "s3dsvd",
                       "--ks", "4,2", "--csv", tmp_path / "s.csv") == 2

    def test_unknown_method_exits_2(self, blob_volume, tmp_path):
        assert run_cli("sweep", "--input", blob_volume, "--method", "hosvd",
                       "--ks", "2", "--csv", tmp_path / "s.csv") == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--seeds", "0,x"), ("--seeds", "0,-1"), ("--seeds", "5,5"), ("--method", ","),
         ("--method", "s3dsvd,s3dsvd")],
    )
    def test_bad_seeds_or_methods_exit_2(self, blob_volume, tmp_path, flag, value):
        args = {"--method": "cpd", "--seeds": "0", flag: value}
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--input", blob_volume, "--ks", "2", "--csv", out,
                       *[part for pair in args.items() for part in pair]) == 2
        assert not out.exists()

    def test_non_integer_volrank_threads_exits_2(self, blob_volume, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("VOLRANK_THREADS", "two")
        assert run_cli("sweep", "--input", blob_volume, "--method", "s3dsvd",
                       "--ks", "2", "--csv", tmp_path / "s.csv") == 2
        assert capsys.readouterr().err == (
            "volrank: error: ValueError: VOLRANK_THREADS must be an integer,"
            " got 'two'\n"
        )

    def test_csv_goes_to_stdout_without_csv(self, blob_volume, capsys):
        assert run_cli("sweep", "--input", blob_volume, "--method", "s3dsvd",
                       "--ks", "2,4", "--no-timing") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "method,k,psnr_db,mse,rel_err,per"
        assert [line.split(",")[:2] for line in out[1:]] == [["s3dsvd", "2"],
                                                             ["s3dsvd", "4"]]

    def test_unconverged_cpd_seeds_reported_on_stderr(self, blob_volume, tmp_path,
                                                       monkeypatch, capsys):
        # Seed 1's fit is cut to one sweep, which can never converge.  Its
        # line gives that sweep count and the reconstruction's rel_err.
        fit = baselines._cpd_als

        def cut_short(hosvd, normx, k, seed, max_iters, tol):
            return fit(hosvd, normx, k, seed, 1 if seed == 1 else max_iters, tol)

        monkeypatch.setattr(baselines, "_cpd_als", cut_short)
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--input", blob_volume, "--method", "cpd",
                       "--ks", "1,2", "--seeds", "0,1", "--csv", out,
                       "--no-timing") == 0
        x = volume_io.read_volume(blob_volume)
        cut = [
            metrics.rel_err(x, baselines.cpd_reconstruct(
                baselines.cpd_decompose(x, k, 1, max_iters=1)))
            for k in (1, 2)
        ]
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"sweep method=cpd k={k} done (2 seeds, 1 unconverged:"
            f" [1 (sweeps=1, rel_err={rel:.3e})])"
            for k, rel in zip((1, 2), cut)
        ]
        assert out.read_text().splitlines()[0] == (
            "method,k,psnr_db,mse,rel_err,per,psnr_ci,mse_ci,relerr_ci"
        )


class TestPlotdata:
    def _sweep(self, volume, tmp_path, ks="2,4"):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--input", volume, "--method", "s3dsvd",
                       "--ks", ks, "--csv", out) == 0
        return out

    def test_two_data_lines(self, blob_volume, tmp_path):
        sweep_csv = self._sweep(blob_volume, tmp_path)
        out = tmp_path / "curve.txt"
        assert run_cli("plotdata", "--csv", sweep_csv, "--curve", "psnr",
                       "--output", out) == 0
        data_lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(data_lines) == 2
        for line in data_lines:
            k, value = line.split()
            assert int(k) in (2, 4)
            float(value)

    def test_per_curve_ends_at_one_and_marks_threshold(self, blob_volume, tmp_path):
        sweep_csv = self._sweep(blob_volume, tmp_path)
        out = tmp_path / "per.txt"
        assert run_cli("plotdata", "--csv", sweep_csv, "--curve", "per",
                       "--output", out) == 0
        lines = out.read_text().splitlines()
        data_lines = [l for l in lines if not l.startswith("#")]
        assert data_lines[-1].split()[1] == "1.0"
        assert any("threshold" in l for l in lines if l.startswith("#"))

    def test_threshold_comment_absent_below_threshold(self, tmp_path):
        # plotdata must cope with curves that never cross 0.99, even
        # though a full s3dsvd sweep always ends at per = 1.0.
        partial = tmp_path / "partial.csv"
        partial.write_text("method,k,psnr_db,mse,rel_err,per,time_s\n"
                           "s3dsvd,2,20.0,0.01,0.5,0.4,0.1\n"
                           "s3dsvd,4,22.0,0.008,0.4,0.7,0.1\n")
        out = tmp_path / "per.txt"
        assert run_cli("plotdata", "--csv", partial, "--curve", "per",
                       "--output", out) == 0
        lines = out.read_text().splitlines()
        assert [l.split()[0] for l in lines] == ["2", "4"]
        assert not any(l.startswith("#") for l in lines)

    def test_missing_column_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("method,k\ns3dsvd,2\n")
        assert run_cli("plotdata", "--csv", bad, "--curve", "per",
                       "--output", tmp_path / "o.txt") == 3

    def test_curve_goes_to_stdout_without_output(self, blob_volume, tmp_path, capsys):
        sweep_csv = self._sweep(blob_volume, tmp_path)
        out = tmp_path / "curve.txt"
        assert run_cli("plotdata", "--csv", sweep_csv, "--curve", "psnr",
                       "--output", out) == 0
        capsys.readouterr()
        assert run_cli("plotdata", "--csv", sweep_csv, "--curve", "psnr") == 0
        assert capsys.readouterr().out == out.read_text()

    def test_empty_file_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run_cli("plotdata", "--csv", empty, "--curve", "per") == 3
        assert capsys.readouterr().err == (
            "volrank: error: ParseError: empty CSV: no header row"
            " (at byte offset 0)\n"
        )

    @pytest.mark.parametrize(
        "row, message",
        [("s3dsvd,two,22.0,0.008,0.4,0.7", "malformed 'k' value 'two'"),
         ("s3dsvd,,22.0,0.008,0.4,0.7", "malformed 'k' value ''"),
         ("s3dsvd,4,22.0,0.008,0.4,half", "malformed 'per' value 'half'")],
    )
    def test_malformed_cell_exits_3(self, tmp_path, capsys, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("method,k,psnr_db,mse,rel_err,per\n"
                       "s3dsvd,2,20.0,0.01,0.5,0.4\n"
                       "# a comment line still counts\n"
                       f"{row}\n")
        out = tmp_path / "o.txt"
        assert run_cli("plotdata", "--csv", bad, "--curve", "per", "--output", out) == 3
        assert capsys.readouterr().err == (
            f"volrank: error: ParseError: CSV line 4: {message}\n"
        )
        assert not out.exists()

    def test_no_s3dsvd_rows_exits_3(self, tmp_path, capsys):
        tucker_only = tmp_path / "tucker.csv"
        tucker_only.write_text("method,k,psnr_db,mse,rel_err,per\n"
                               "tucker,2,20.0,0.01,0.5,\n")
        assert run_cli("plotdata", "--csv", tucker_only, "--curve", "psnr") == 3
        assert capsys.readouterr().err == (
            "volrank: error: ParseError: CSV has no s3dsvd rows with a 'psnr_db' value\n"
        )

    def test_undecodable_file_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"method,k,per\ns3dsvd,2,\xff\n")
        assert run_cli("plotdata", "--csv", bad, "--curve", "per") == 3
        err = capsys.readouterr().err
        assert err.startswith("volrank: error: ParseError: CSV is not text:")
        assert err.count("\n") == 1


class TestErrorSurface:
    def test_error_line_is_single_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.s3dv"
        bad.write_bytes(b"trash")
        assert run_cli("decompose", "--input", bad, "--method", "s3dsvd",
                       "--rank", "2", "--output", tmp_path / "m.s3dm") == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("volrank: error: ParseError:")
        assert "\n" not in err

    def test_unwritable_output_exits_5(self, blob_volume, tmp_path):
        assert run_cli("gen", "--kind", "blobs", "--dims", "4,4,4",
                       "--output", tmp_path / "no_such_dir" / "x.s3dv") == 5

    def test_entry_point_exits_with_mains_code(self, monkeypatch):
        # A real freeze would also move pytest's objects out of collection.
        monkeypatch.setattr(gc, "freeze", lambda: None)
        monkeypatch.setattr(sys, "argv", ["volrank", "sweep", "--ks", "2"])
        with pytest.raises(SystemExit) as exc:
            cli.entry_point()
        assert exc.value.code == 2

    def test_entry_point_freezes_once_after_main_returns(self, monkeypatch, tmp_path):
        events = []
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        main = cli.main

        def recorded():
            code = main(["gen", "--kind", "blobs", "--dims", "4,4,4",
                         "--output", str(tmp_path / "x.s3dv")])
            events.append(f"main returned {code}")
            return code

        monkeypatch.setattr(cli, "main", recorded)
        with pytest.raises(SystemExit) as exc:
            cli.entry_point()
        assert exc.value.code == 0
        assert events == ["main returned 0", "freeze"]

    def test_main_never_freezes(self, monkeypatch, blob_volume, tmp_path):
        frozen = []
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
        model = tmp_path / "m.s3dm"
        codes = [
            run_cli("decompose", "--input", blob_volume, "--method", "s3dsvd",
                    "--rank", "3", "--output", model),
            run_cli("reconstruct", "--input", model, "--k", "2",
                    "--output", tmp_path / "r.s3dv"),
            run_cli("metrics", "--input", blob_volume, "--model", model, "--k", "2"),
            run_cli("sweep", "--ks", "2"),
        ]
        assert codes == [0, 0, 0, 2]
        assert frozen == []

    def test_module_run_with_bad_arguments_exits_2(self):
        result = _cli_subprocess(["sweep", "--ks", "2"])
        assert result.returncode == 2
        assert "required" in result.stderr


class TestNonFiniteModel:
    @pytest.fixture()
    def nan_core_model(self, blob_volume, tmp_path):
        model = s3dsvd.decompose(volume_io.read_volume(blob_volume), 4)
        data = bytearray(volume_io.model_to_bytes(model))
        core_offset = 24 + 8 * model.rank * sum(model.dims)
        struct.pack_into("<d", data, core_offset, math.nan)
        path = tmp_path / "nan.s3dm"
        path.write_bytes(bytes(data))
        return path

    def _assert_one_numeric_line(self, capsys):
        err = capsys.readouterr().err
        assert err == (
            "volrank: error: NumericError: core tensor contains a non-finite"
            " value at flat index 0\n"
        )

    def test_metrics_exits_4(self, blob_volume, nan_core_model, tmp_path, capsys):
        assert run_cli("metrics", "--input", blob_volume, "--model", nan_core_model,
                       "--k", "4", "--csv", tmp_path / "m.csv") == 4
        self._assert_one_numeric_line(capsys)

    def test_reconstruct_exits_4(self, nan_core_model, tmp_path, capsys):
        assert run_cli("reconstruct", "--input", nan_core_model, "--k", "2",
                       "--output", tmp_path / "r.s3dv") == 4
        self._assert_one_numeric_line(capsys)


class TestQsigmaMismatch:
    def test_metrics_exits_4(self, blob_volume, tmp_path, capsys):
        model = s3dsvd.decompose(volume_io.read_volume(blob_volume), 4)
        data = bytearray(volume_io.model_to_bytes(model))
        struct.pack_into("<d", data, len(data) - 8, 123.0)
        path = tmp_path / "qsigma.s3dm"
        path.write_bytes(bytes(data))
        assert run_cli("metrics", "--input", blob_volume, "--model", path,
                       "--k", "1", "--csv", tmp_path / "m.csv") == 4
        assert capsys.readouterr().err == (
            "volrank: error: NumericError: qsigma differs from the core diagonal"
            " at index 3\n"
        )


def _huge_volume(tmp_path):
    """A finite volume whose CPD normal equations overflow float64."""
    path = tmp_path / "huge.s3dv"
    volume_io.write_volume(path, np.random.default_rng(0).random((5, 6, 7)) * 1e160)
    return path


# The two ways LAPACK fails on a CPD normal-equation system: in the Cholesky
# retried after the ridge, or in the solve.  Each is raised as numpy raises it.
LAPACK_FAILURES = [("cholesky", "Matrix is not positive definite"), ("solve", "Singular matrix")]


def fail_lapack(monkeypatch, name, cause, after=0):
    """Make ``np.linalg.<name>`` raise ``LinAlgError(cause)`` from its call ``after + 1`` on."""
    real, calls = getattr(np.linalg, name), []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) > after:
            raise np.linalg.LinAlgError(cause)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, failing)


def _subprocess_env(**extra):
    """The environment with this checkout's ``volrank`` first on the path."""
    src = os.path.dirname(os.path.dirname(volrank.__file__))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _cli_subprocess(args, threads="1"):
    # numpy's warnings reach a real stderr, which capsys does not show.
    return subprocess.run(
        [sys.executable, "-m", "volrank.cli", *map(str, args)],
        env=_subprocess_env(VOLRANK_THREADS=threads),
        capture_output=True, text=True, timeout=120,
    )


def _module_cases():
    """``pytest.param(argv, exit code)`` of every subcommand and every failing exit code.

    ``{in}`` stands for the directory of :func:`module_inputs`; outputs are
    relative, so each run writes them into its own working directory.
    """
    vol, model = "{in}/vol.s3dv", "{in}/model.s3dm"
    cases = [("gen", 0, ["gen", "--kind", "blobs_noisy", "--dims", "6,7,8", "--seed", "2",
                         "--output", "g.s3dv"])]
    cases += [
        (f"decompose {method}", 0, ["decompose", "--input", vol, "--method", method,
                                    "--rank", "3", "--seed", "1", "--output", "m.s3dm"])
        for method in ("s3dsvd", "tucker", "cpd")
    ]
    cases += [
        ("reconstruct", 0, ["reconstruct", "--input", model, "--k", "3", "--output", "r.s3dv",
                            "--slices", "0,2"]),
        ("metrics", 0, ["metrics", "--input", vol, "--model", model, "--k", "3",
                        "--no-timing"]),
        ("sweep", 0, ["sweep", "--input", vol, "--method", "s3dsvd,tucker,cpd", "--ks", "2,3",
                      "--seeds", "0,1", "--no-timing"]),
        ("plotdata", 0, ["plotdata", "--csv", "{in}/sweep.csv", "--curve", "per"]),
        ("exit 2", 2, ["sweep", "--ks", "2"]),
        ("exit 3", 3, ["decompose", "--input", "{in}/trash.s3dv", "--method", "s3dsvd",
                       "--rank", "2", "--output", "m.s3dm"]),
        ("exit 4", 4, ["reconstruct", "--input", "{in}/nan.s3dm", "--k", "2",
                       "--output", "r.s3dv"]),
        ("exit 5", 5, ["gen", "--kind", "blobs", "--dims", "4,4,4", "--output", "no/x.s3dv"]),
    ]
    return [pytest.param(argv, code, id=name) for name, code, argv in cases]


@pytest.fixture(scope="module")
def module_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    x = volume_io.gen_synthetic("blobs_noisy", (10, 11, 12), seed=1)
    volume_io.write_volume(d / "vol.s3dv", x)
    model = s3dsvd.decompose(x, 4)
    volume_io.write_model(d / "model.s3dm", model)
    data = bytearray(volume_io.model_to_bytes(model))
    struct.pack_into("<d", data, 24 + 8 * model.rank * sum(model.dims), math.nan)
    (d / "nan.s3dm").write_bytes(bytes(data))
    (d / "trash.s3dv").write_bytes(b"trash")
    rows = cli.run_sweep(x, ["s3dsvd"], [2, 3, 4]).rows
    cli._write_csv(rows, cli._csv_columns(False, False), d / "sweep.csv")
    return d


class TestModuleRun:
    """``python -m volrank.cli`` runs :func:`volrank.cli.entry_point`, which freezes
    the collector before the process ends; nothing it writes may change."""

    @pytest.mark.parametrize("argv, want", _module_cases())
    def test_same_bytes_and_code_as_main(self, argv, want, module_inputs, tmp_path,
                                         monkeypatch, capsys):
        argv = [arg.replace("{in}", str(module_inputs)) for arg in argv]
        results = []
        for name in ("in_process", "module"):
            cwd = tmp_path / name
            cwd.mkdir()
            if name == "in_process":
                monkeypatch.chdir(cwd)
                code = cli.main(argv)
                out, err = capsys.readouterr()
            else:
                done = subprocess.run([sys.executable, "-m", "volrank.cli", *argv], cwd=cwd,
                                      env=_subprocess_env(), capture_output=True, text=True,
                                      timeout=120)
                code, out, err = done.returncode, done.stdout, done.stderr
            files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
            err = re.sub(r"elapsed_s=\S+", "elapsed_s=<time>", err)
            results.append((code, out, err, files))
        assert results[0][0] == want
        assert results[0] == results[1]


class TestOverflow:
    def test_cpd_overflow_exits_4_and_writes_no_model(self, tmp_path, capsys):
        out = tmp_path / "m.s3dm"
        assert run_cli("decompose", "--input", _huge_volume(tmp_path), "--method", "cpd",
                       "--rank", "2", "--output", out) == 4
        assert capsys.readouterr().err == (
            "volrank: error: NumericError: ALS mode-2 Gram matrix contains a"
            " non-finite value at flat index 0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,threads",
        [("decompose", "1"), ("sweep", "2"), ("metrics", "1")],
    )
    def test_one_stderr_line(self, blob_volume, tmp_path, command, threads):
        if command == "decompose":
            args = ["decompose", "--input", _huge_volume(tmp_path), "--method", "cpd",
                    "--rank", "2", "--output", tmp_path / "m.s3dm"]
        elif command == "sweep":
            args = ["sweep", "--input", _huge_volume(tmp_path), "--method", "cpd",
                    "--ks", "1,2", "--seeds", "0,1", "--csv", tmp_path / "s.csv"]
        else:
            # One flipped exponent byte makes the leading core entry about
            # 1e304, so the squared error overflows.
            model = s3dsvd.decompose(volume_io.read_volume(blob_volume), 4)
            data = bytearray(volume_io.model_to_bytes(model))
            data[24 + 8 * model.rank * sum(model.dims) + 7] ^= 0x3F
            path = tmp_path / "flipped.s3dm"
            path.write_bytes(bytes(data))
            args = ["metrics", "--input", blob_volume, "--model", path, "--k", "4"]
        done = _cli_subprocess(args, threads)
        assert done.returncode == 4
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("volrank: error: NumericError: ")

    @pytest.mark.parametrize("name,cause", LAPACK_FAILURES)
    def test_cpd_lapack_failure_exits_4(self, blob_volume, tmp_path, monkeypatch, capsys,
                                        name, cause):
        out = tmp_path / "m.s3dm"
        capsys.readouterr()
        fail_lapack(monkeypatch, name, cause)
        code = run_cli("decompose", "--input", blob_volume, "--method", "cpd",
                       "--rank", "2", "--output", out)
        assert code == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("volrank: error: NumericError: ALS mode-")
        assert lines[0].endswith(f" normal equations: {cause}")
        assert not out.exists()

    def test_psnr_overflow_exits_4(self, blob_volume, tmp_path):
        # An off-diagonal core entry leaves qsigma valid, so the one error
        # line comes from the overflowed mse.
        model = s3dsvd.decompose(volume_io.read_volume(blob_volume), 4)
        data = bytearray(volume_io.model_to_bytes(model))
        struct.pack_into("<d", data, 24 + 8 * model.rank * sum(model.dims) + 8, 1e300)
        path = tmp_path / "offdiag.s3dm"
        path.write_bytes(bytes(data))
        done = _cli_subprocess(
            ["metrics", "--input", blob_volume, "--model", path, "--k", "4"]
        )
        assert done.returncode == 4
        assert done.stderr == (
            "volrank: error: NumericError: psnr is undefined for peak 1.0 and mse inf\n"
        )


class TestUnderflow:
    def test_metrics_of_a_tiny_volume_are_those_of_its_unscaled_copy(self, tmp_path, capsys):
        # At 2**-600 every square underflows to 0.0; this once exited 4 with
        # "per is undefined when all qsigma are zero".
        x = volume_io.gen_synthetic("blobs_noisy", (20, 24, 28), seed=3)
        rows = []
        for name, scale in (("plain", 1.0), ("tiny", 2.0**-600)):
            vol, model = tmp_path / f"{name}.s3dv", tmp_path / f"{name}.s3dm"
            volume_io.write_volume(vol, x * scale)
            assert run_cli("decompose", "--input", vol, "--method", "s3dsvd", "--rank", "6",
                           "--output", model) == 0
            capsys.readouterr()
            assert run_cli("metrics", "--input", vol, "--model", model, "--k", "4",
                           "--no-timing") == 0
            rows.append(next(csv.DictReader(io.StringIO(capsys.readouterr().out))))
        plain, tiny = rows
        for key in ("psnr_db", "rel_err", "per"):
            assert float(tiny[key]) == pytest.approx(float(plain[key]), rel=1e-12, abs=0.0)


class TestImportCost:
    def test_cli_import_leaves_concurrent_futures_unloaded(self):
        # It brings logging and threading, about 10 ms of every CLI call;
        # only a threaded cpd study needs its thread pool.
        code = "import sys, volrank.cli; print('concurrent.futures' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_a_session_runs_with_scipy_blocked(self, tmp_path):
        # numpy is the only runtime dependency: with scipy unimportable,
        # every subcommand exits 0, a threaded multi-seed cpd sweep included.
        vol, sweep_csv = tmp_path / "v.s3dv", tmp_path / "sweep.csv"
        calls = [
            ["gen", "--kind", "blobs", "--dims", "12,13,14", "--seed", "2", "--blobs", "6",
             "--output", vol],
            *(["decompose", "--input", vol, "--method", method, "--rank", "4",
               "--output", tmp_path / f"{method}.s3dm"] for method in ("s3dsvd", "tucker", "cpd")),
            ["reconstruct", "--input", tmp_path / "tucker.s3dm", "--k", "3",
             "--output", tmp_path / "r.s3dv"],
            ["metrics", "--input", vol, "--model", tmp_path / "s3dsvd.s3dm", "--k", "3",
             "--csv", tmp_path / "m.csv"],
            ["sweep", "--input", vol, "--method", "s3dsvd,tucker,cpd", "--ks", "2,4",
             "--seeds", "0,1", "--csv", sweep_csv],
            ["plotdata", "--csv", sweep_csv, "--curve", "psnr", "--output", tmp_path / "p.dat"],
        ]
        code = (
            "import json, sys; sys.modules['scipy'] = None; from volrank import cli; "
            "print([cli.main(args) for args in json.loads(sys.argv[1])])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps([[str(a) for a in c] for c in calls])],
            env=_subprocess_env(VOLRANK_THREADS="2"), capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert out.stdout.splitlines()[-1] == str([0] * len(calls))
        rows = read_csv(sweep_csv)
        cpd = [row for row in rows if row["method"] == "cpd"]
        assert [row["k"] for row in cpd] == ["2", "4"]
        assert all(float(row["psnr_ci"]) > 0.0 for row in cpd)
