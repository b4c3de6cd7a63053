import csv
import math
import os
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

import volrank
from volrank import baselines, cli, metrics, s3dsvd, volume_io


def run_cli(*args):
    return cli.main([str(a) for a in args])


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
        # Every k starts HOOI from the one decompose at max(ks).
        x = volume_io.read_volume(blob_volume)
        fitted = {}
        hooi = baselines._hooi

        def record(x, hosvd, k, *args, **kwargs):
            fitted[k] = hooi(x, hosvd, k, *args, **kwargs)
            return fitted[k]

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

    @pytest.mark.parametrize(
        "methods, calls",
        [(["s3dsvd", "tucker"], 1), (["tucker"], 1), (["tucker", "cpd", "s3dsvd"], 1),
         (["cpd"], 0)],
    )
    def test_one_decompose_per_sweep(self, blob_volume, monkeypatch, methods, calls):
        x = volume_io.read_volume(blob_volume)
        ranks = []
        decompose = s3dsvd.decompose

        def counted(x, r):
            ranks.append(r)
            return decompose(x, r)

        monkeypatch.setattr(s3dsvd, "decompose", counted)
        monkeypatch.setattr(baselines, "decompose", counted)
        rows = cli.run_sweep(x, methods, [2, 4], seeds=(0,)).rows
        assert len(rows) == 2 * len(methods)
        assert ranks == [4] * calls

    def test_tucker_rows_carry_the_whole_decompose(self, blob_volume, monkeypatch):
        # A slow decompose makes its share of each row plain to see.
        x = volume_io.read_volume(blob_volume)
        decompose = s3dsvd.decompose

        def slow(x, r):
            time.sleep(0.2)
            return decompose(x, r)

        monkeypatch.setattr(s3dsvd, "decompose", slow)
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

    @pytest.mark.parametrize("methods", ["s3dsvd,tucker", "tucker"])
    def test_max_ks_beyond_volume_exits_2(self, blob_volume, tmp_path, capsys,
                                         methods):
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--input", blob_volume, "--method", methods,
                       "--ks", "2,13", "--csv", out) == 2
        assert capsys.readouterr().err == (
            "volrank: error: ValueError: r must satisfy 1 <= r <= 12, got 13\n"
        )
        assert not out.exists()

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

    def test_unconverged_cpd_seeds_reported_on_stderr(self, blob_volume, tmp_path,
                                                       monkeypatch, capsys):
        # Seed 1's fit is cut to one sweep, which can never converge.
        fit = baselines.cpd_decompose

        def cut_short(x, k, seed, **kwargs):
            if seed == 1:
                kwargs["max_iters"] = 1
            return fit(x, k, seed, **kwargs)

        monkeypatch.setattr(baselines, "cpd_decompose", cut_short)
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--input", blob_volume, "--method", "cpd",
                       "--ks", "1,2", "--seeds", "0,1", "--csv", out,
                       "--no-timing") == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "sweep method=cpd k=1 done (2 seeds, 1 unconverged: [1])",
            "sweep method=cpd k=2 done (2 seeds, 1 unconverged: [1])",
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


class TestNonFiniteModel:
    @pytest.fixture()
    def nan_core_model(self, blob_volume, tmp_path):
        model = s3dsvd.decompose(volume_io.read_volume(blob_volume), 4)
        data = bytearray(volume_io.model_to_bytes(model))
        core_offset = 24 + 8 * model.r * sum(model.dims)
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
            data[24 + 8 * model.r * sum(model.dims) + 7] ^= 0x3F
            path = tmp_path / "flipped.s3dm"
            path.write_bytes(bytes(data))
            args = ["metrics", "--input", blob_volume, "--model", path, "--k", "4"]
        done = _cli_subprocess(args, threads)
        assert done.returncode == 4
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("volrank: error: NumericError: ")

    def test_psnr_overflow_exits_4(self, blob_volume, tmp_path):
        # An off-diagonal core entry leaves qsigma valid, so the one error
        # line comes from the overflowed mse.
        model = s3dsvd.decompose(volume_io.read_volume(blob_volume), 4)
        data = bytearray(volume_io.model_to_bytes(model))
        struct.pack_into("<d", data, 24 + 8 * model.r * sum(model.dims) + 8, 1e300)
        path = tmp_path / "offdiag.s3dm"
        path.write_bytes(bytes(data))
        done = _cli_subprocess(
            ["metrics", "--input", blob_volume, "--model", path, "--k", "4"]
        )
        assert done.returncode == 4
        assert done.stderr == (
            "volrank: error: NumericError: psnr is undefined for peak 1.0 and mse inf\n"
        )


class TestImportCost:
    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about half a second of every CLI call and the
        # package needs only one Student-t quantile, from scipy.special.
        code = "import sys, volrank.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_cli_import_leaves_scipy_special_and_linalg_unloaded(self):
        # Each is imported only by the function that uses it: the Student-t
        # quantile of a CPD study and the SVD's gesvd fallback.
        code = (
            "import sys, volrank.cli; "
            "print([m in sys.modules for m in ('scipy.special', 'scipy.linalg')])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "[False, False]"
