"""The benchmark's three workloads and the closed loop that runs them.

Each workload makes its inputs with numpy from the seed, warms up, and then
runs whole rounds of the same operations, one call at a time, until the run's
time is spent.  Every output is checked against :mod:`reference`.

The CLI workloads call ``volrank`` through a *caller*: :class:`Processes`
runs each call as a child process (the measured run), :class:`InProcess`
runs it through ``volrank.cli.main`` in this process (the traced run).
Peak resident sets are taken only from child processes, which run nothing
of the benchmark's own and are started by ``launcher.py``.
"""

import contextlib
import csv
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

import launcher
import reference as ref

SETUPS = 3              # set-ups per run; setup_s is their median
CALL_TIMEOUT_S = 150    # a CLI process still running after this is killed
WARM_SHAPE = (16, 16, 16)


@dataclass
class Call:
    wall_s: float
    code: int
    stderr: str
    rss_mb: Optional[float]


class Processes:
    """Runs each CLI call as a child process started by ``launcher.py``;
    keeps its wall time and peak RSS.  Close it to end the launcher."""

    def __init__(self, workdir):
        self.stderr_path = os.path.join(workdir, "stderr.txt")
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(launcher.HERE, "launcher.py")],
            env=launcher.child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self, argv):
        return self.python(["-m", "volrank.cli", *argv])

    def python(self, argv):
        """Any ``python argv...`` child, kept like a CLI call."""
        self.launcher.stdin.write(json.dumps([argv, CALL_TIMEOUT_S, self.stderr_path]) + "\n")
        self.launcher.stdin.flush()
        code, wall, rss_mb = json.loads(self.launcher.stdout.readline())
        with open(self.stderr_path) as err:
            return Call(wall, code, err.read(), rss_mb)

    def close(self):
        self.launcher.stdin.close()
        self.launcher.wait()


class InProcess:
    """Runs each CLI call through ``volrank.cli.main`` in this process."""

    def __call__(self, argv):
        from volrank import cli

        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return Call(time.perf_counter() - start, code, err.getvalue(), None)


class Record:
    """Samples, operation counts and the headline PSNR gathered over a run."""

    def __init__(self):
        self.samples = defaultdict(list)    # end-to-end time samples
        self.program = defaultdict(list)    # times the program reports itself
        self.rss_mb = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.psnr_db = None

    def median(self, key):
        return statistics.median(self.samples[key]) if self.samples[key] else None


class Workload:
    """Inputs, warm-up, one round and its checks; subclasses fill them in."""

    name = ""
    ops_per_round = 0
    in_process = False      # True when this process makes library calls too

    def __init__(self, workdir, seed, procs, tracer=None):
        self.workdir = workdir
        self.seed = seed
        self.procs = procs      # child processes: CLI calls untraced, probes always
        self.call = procs if tracer is None else InProcess()
        self.tracer = tracer

    def path(self, name):
        return os.path.join(self.workdir, name)

    def op(self, rec, label):
        """Count one operation and label the spans it makes."""
        rec.attempted += 1
        if self.tracer is not None:
            self.tracer.op = f"{rec.rounds}:{label}"

    def cli(self, rec, argv):
        """One CLI call; returns None, counting a failure, if it exits non-zero."""
        self.op(rec, argv[0])
        return self.exited_0(rec, f"volrank {argv[0]}", self.call(argv))

    def exited_0(self, rec, what, c):
        """``c`` if it exited 0, else None with a failure counted; keeps its peak RSS."""
        if c.code != 0:
            rec.failed += 1
            print(f"{what} exited {c.code}: {c.stderr.strip()}", file=sys.stderr)
            return None
        if c.rss_mb is not None:
            rec.rss_mb.append(c.rss_mb)
        return c

    def make_inputs(self):
        self.x = ref.blob_volume(self.shape, self.seed, self.noise)
        ref.write_s3dv(self.path("input.s3dv"), self.x)
        ref.write_s3dv(self.path("warm.s3dv"), ref.blob_volume(WARM_SHAPE, self.seed))

    def warm_up(self, rec):
        """A small sweep over every method, one operation: the first timed call
        then finds the interpreter, both BLAS libraries and the page cache warm."""
        self.cli(rec, ["sweep", "--input", self.path("warm.s3dv"), "--method", "s3dsvd,tucker,cpd",
                       "--ks", "2", "--seeds", "0", "--csv", self.path("warm.csv")])

    def measure_rss(self, rec):
        """After the timed rounds: peak-RSS runs the CLI children do not cover."""

    def prepare(self):
        """Reference values the checks need; not part of set-up time."""
        self.size = self.x.size
        self.peak = float(self.x.max())
        self.normx2 = ref.sq_err(self.x)
        self.energies = ref.unfolding_energies(self.x)

    def round(self, rec):
        raise NotImplementedError

    def check_rows(self, rows, expected):
        got = [(row["method"], int(row["k"])) for row in rows]
        if got != expected:
            raise ref.CheckFailed(f"sweep rows {got}, expected {expected}")

    def metrics(self, rec):
        return {
            "setup_s": rec.median("setup_s"),
            "fit_s": rec.median("fit_s"),
            "ladder_s": rec.median("ladder_s"),
            "sweep_s": rec.median("sweep_s"),
            "psnr_db": rec.psnr_db,
            "peak_rss_mb": max(rec.rss_mb) if rec.rss_mb else None,
        }


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _elapsed(stderr):
    """The ``elapsed_s`` that ``volrank decompose`` reports on stderr."""
    found = re.search(r"elapsed_s=(\S+)", stderr)
    if found is None:
        raise ref.CheckFailed(f"decompose printed no elapsed_s: {stderr.strip()!r}")
    return float(found.group(1))


class Progressive(Workload):
    """The README's library loop: fit once at rank R, serve every level j <= R.

    Runs in-process through the library on an anisotropic noisy volume.
    Each level reads the level-j model back from the file, reconstructs it
    and scores it; a library sweep of s3dsvd follows.  The peak RSS comes
    from ``rss_probe.py``, which makes the same library calls in a child
    process without the checks.
    """

    name = "progressive"
    shape = (96, 128, 160)
    noise = 0.05
    rank = 48
    sweep_ks = (12, 24, 48)
    ops_per_round = rank + 3    # decompose, write_model, each level, sweep
    in_process = True

    def __init__(self, workdir, seed, procs, tracer=None):
        super().__init__(workdir, seed, procs, tracer)
        from volrank import cli, metrics, s3dsvd, volume_io

        self.lib_cli, self.lib_metrics = cli, metrics
        self.s3dsvd, self.volume_io = s3dsvd, volume_io
        self.model_path = self.path("progressive.s3dm")

    def make_inputs(self):
        self.x = ref.blob_volume(self.shape, self.seed, self.noise)
        ref.write_s3dv(self.path("input.s3dv"), self.x)

    def warm_up(self, rec):
        self.op(rec, "warm-up decompose")
        self.s3dsvd.decompose(self.x, self.rank)

    def measure_rss(self, rec):
        self.op(rec, "rss_probe")
        argv = [os.path.join(launcher.HERE, "rss_probe.py"), self.path("input.s3dv"),
                self.path("probe.s3dm"), str(self.rank), ",".join(map(str, self.sweep_ks))]
        self.exited_0(rec, "rss_probe.py", self.procs.python(argv))

    def round(self, rec):
        x, n, r = self.x, self.x.size, self.rank
        metrics = self.lib_metrics
        self.op(rec, "decompose")
        start = time.perf_counter()
        model = self.s3dsvd.decompose(x, r)
        rec.samples["fit_s"].append(time.perf_counter() - start)
        self.op(rec, "write_model")
        self.volume_io.write_model(self.model_path, model)

        stored = ref.read_s3dm(self.model_path)
        ref.check_orthonormal(stored)
        energy = np.cumsum(stored["qsigma"] ** 2)
        ladder, pers = 0.0, []
        for j in range(1, r + 1):
            self.op(rec, f"level{j}")
            start = time.perf_counter()
            xj = self.s3dsvd.reconstruct(self.volume_io.read_model(self.model_path, level=j), j)
            psnr, mse = metrics.psnr(x, xj), metrics.mse(x, xj)
            rel, per = metrics.rel_err(x, xj), metrics.per(model, j)
            ladder += time.perf_counter() - start

            what = f"level {j}"
            ref.check_expansion(what, xj, stored, j)
            want = ref.error_metrics(x, xj)
            ref.check_value(f"{what} mse", mse, want["mse"])
            ref.check_value(f"{what} psnr", psnr, want["psnr_db"])
            ref.check_value(f"{what} rel_err", rel, want["rel_err"])
            ref.check_value(f"{what} per", per, energy[j - 1] / energy[-1])
            ref.check_truncation_bounds(what, want["sq_err"], ref.tails(self.energies, j))
            pers.append(per)
        ref.check_per(pers)
        rec.samples["ladder_s"].append(ladder)
        rec.psnr_db = psnr

        self.op(rec, "sweep")
        start = time.perf_counter()
        result = self.lib_cli.run_sweep(x, ["s3dsvd"], self.sweep_ks)
        rec.samples["sweep_s"].append(time.perf_counter() - start)
        self.check_rows(result.rows, [("s3dsvd", k) for k in self.sweep_ks])
        for row in result.rows:
            ref.check_sweep_row(row, self.peak, self.normx2, n)
            ref.check_truncation_bounds(
                f"sweep s3dsvd k={row['k']}", row["mse"] * n, ref.tails(self.energies, row["k"])
            )
        ref.check_per([row["per"] for row in result.rows])


class CliCompare(Workload):
    """A CLI session: decompose, reconstruct a ladder of levels, sweep against Tucker.

    Each round makes ``passes`` decompose-and-ladder passes, so the short,
    start-up dominated calls give several samples per run; the first comes
    before the sweep and the rest after it, so the samples are spread over
    the run.

    The sweep runs on one noisy volume that does not depend on the seed.
    HOOI stops when its error gain falls below a tolerance, and over ten
    seeded draws its sweep count at k = 8, 16, 32 was either 35-36 or 44-46,
    with no draw in between.  A median of ten seeded runs would then jump
    between two sweep times some 20% apart.
    """

    name = "cli-compare"
    shape = (128, 128, 128)
    noise = 0.05
    rank = 32
    ladder = (4, 8, 16, 32)
    sweep_ks = (8, 16, 32)
    passes = 3
    ops_per_round = passes * (1 + len(ladder)) + 1

    def make_inputs(self):
        super().make_inputs()
        self.sweep_x = ref.blob_volume(self.shape, ref.SCENE_SEED, self.noise)
        ref.write_s3dv(self.path("sweep.s3dv"), self.sweep_x)

    def prepare(self):
        super().prepare()
        self.sweep_peak = float(self.sweep_x.max())
        self.sweep_normx2 = ref.sq_err(self.sweep_x)
        self.sweep_energies = ref.unfolding_energies(self.sweep_x)

    def round(self, rec):
        self.decompose_and_ladder(rec)
        self.sweep(rec)
        for _ in range(self.passes - 1):
            self.decompose_and_ladder(rec)

    def decompose_and_ladder(self, rec):
        model_path, recon = self.path("model.s3dm"), self.path("recon.s3dv")
        c = self.cli(rec, ["decompose", "--input", self.path("input.s3dv"), "--method", "s3dsvd",
                           "--rank", str(self.rank), "--output", model_path])
        stored = None
        if c is not None:
            rec.samples["fit_s"].append(c.wall_s)
            rec.program["decompose_elapsed_s"].append(_elapsed(c.stderr))
            stored = ref.read_s3dm(model_path)
            ref.check_orthonormal(stored)
        ladder = 0.0
        for j in self.ladder:
            c = self.cli(rec, ["reconstruct", "--input", model_path, "--k", str(j), "--output", recon])
            if c is None or stored is None:
                continue
            ladder += c.wall_s
            xj = ref.read_s3dv(recon)
            ref.check_expansion(f"reconstruct --k {j}", xj, stored, j)
            ref.check_truncation_bounds(
                f"reconstruct --k {j}", ref.sq_err(self.x, xj), ref.tails(self.energies, j)
            )
        rec.samples["ladder_s"].append(ladder)

    def sweep(self, rec):
        n, csv_path = self.size, self.path("sweep.csv")
        c = self.cli(rec, ["sweep", "--input", self.path("sweep.s3dv"), "--method", "s3dsvd,tucker",
                           "--ks", ",".join(map(str, self.sweep_ks)), "--csv", csv_path])
        if c is None:
            return
        rec.samples["sweep_s"].append(c.wall_s)
        rows = _read_csv(csv_path)
        rec.program["sweep_time_s"].append(sum(float(row["time_s"]) for row in rows))
        self.check_rows(rows, [(m, k) for m in ("s3dsvd", "tucker") for k in self.sweep_ks])
        by_key = {(row["method"], int(row["k"])): row for row in rows}
        for (method, k), row in by_key.items():
            ref.check_sweep_row(row, self.sweep_peak, self.sweep_normx2, n)
            ref.check_truncation_bounds(
                f"sweep {method} k={k}", float(row["mse"]) * n, ref.tails(self.sweep_energies, k)
            )
        for k in self.sweep_ks:
            ref.check_not_worse(
                f"k={k} tucker rel_err against s3dsvd",
                float(by_key["tucker", k]["rel_err"]), float(by_key["s3dsvd", k]["rel_err"]),
            )
        ref.check_per([float(by_key["s3dsvd", k]["per"]) for k in self.sweep_ks])
        rec.psnr_db = float(by_key["tucker", self.sweep_ks[-1]]["psnr_db"])


class CpdStudy(Workload):
    """The paper's CPD comparison: a multi-seed ALS sweep on a smooth 64^3 volume.

    The sweep is one CLI process.  Before it, the library fits one CPD at
    the sweep's largest rank in this process and serves that model
    ``serves`` times, half before the sweep and half after it: a CPD model
    has one level only, so its ladder is one reconstruction, scored.  A
    serve takes about 9 ms, and its speed drifts by some 20% within seconds
    on a shared box, so the serves are split between two moments about
    half a minute apart.
    """

    name = "cpd-study"
    shape = (64, 64, 64)
    noise = 0.0
    sweep_ks = (8, 16)
    seeds = (0, 1)
    serves = 32
    in_process = True
    ops_per_round = 1 + serves + 1

    def __init__(self, workdir, seed, procs, tracer=None):
        super().__init__(workdir, seed, procs, tracer)
        from volrank import baselines, metrics

        self.baselines, self.lib_metrics = baselines, metrics

    def round(self, rec):
        model = self.fit(rec)
        self.serve(rec, model, self.serves // 2)
        self.sweep(rec)
        self.serve(rec, model, self.serves - self.serves // 2)

    def fit(self, rec):
        self.op(rec, "cpd_decompose")
        start = time.perf_counter()
        model = self.baselines.cpd_decompose(self.x, self.sweep_ks[-1], 0)
        rec.samples["fit_s"].append(time.perf_counter() - start)
        return model

    def serve(self, rec, model, count):
        x, metrics, k = self.x, self.lib_metrics, self.sweep_ks[-1]
        arrays = {"method": "cpd", "dims": x.shape, "rank": k,
                  "factors": model.factors, "weights": model.weights}
        times = []
        for _ in range(count):
            self.op(rec, "cpd_reconstruct")
            start = time.perf_counter()
            xk = self.baselines.cpd_reconstruct(model)
            psnr, mse, rel = metrics.psnr(x, xk), metrics.mse(x, xk), metrics.rel_err(x, xk)
            times.append(time.perf_counter() - start)

            ref.check_expansion("cpd reconstruct", xk, arrays)
            want = ref.error_metrics(x, xk)
            ref.check_value("cpd mse", mse, want["mse"])
            ref.check_value("cpd psnr", psnr, want["psnr_db"])
            ref.check_value("cpd rel_err", rel, want["rel_err"])
            ref.check_truncation_bounds(
                "cpd reconstruct", want["sq_err"], ref.tails(self.energies, k), lower_only=True
            )
        # Consecutive serves alternate between two speeds (about 6.5 and 11 ms
        # here), so one sample is the mean of a pair; a median of single serves
        # would jump between the two.
        rec.samples["ladder_s"] += [(a + b) / 2 for a, b in zip(times[::2], times[1::2])]

    def sweep(self, rec):
        csv_path = self.path("sweep.csv")
        c = self.cli(rec, ["sweep", "--input", self.path("input.s3dv"), "--method", "cpd",
                           "--ks", ",".join(map(str, self.sweep_ks)),
                           "--seeds", ",".join(map(str, self.seeds)), "--csv", csv_path])
        if c is None:
            return
        rec.samples["sweep_s"].append(c.wall_s)
        rows = _read_csv(csv_path)
        rec.program["sweep_time_s"].append(sum(float(row["time_s"]) for row in rows))
        self.check_rows(rows, [("cpd", k) for k in self.sweep_ks])
        for row in rows:
            k = int(row["k"])
            ref.check_truncation_bounds(
                f"sweep cpd k={k} mean mse", float(row["mse"]) * self.size,
                ref.tails(self.energies, k), lower_only=True,
            )
            ref.check_ci(row)
        rec.psnr_db = float(rows[-1]["psnr_db"])


WORKLOADS = {w.name: w for w in (Progressive, CliCompare, CpdStudy)}


def run(workload, seconds, rec):
    """Set up ``SETUPS`` times, run whole rounds for about ``seconds``, then
    measure the peak RSS that the rounds' child processes do not cover.

    A round starts only if one more round of the last round's length still
    fits in ``seconds``; the first round always runs.  The set-up times go
    to ``rec.samples["setup_s"]``.  A failed check raises
    :class:`reference.CheckFailed`.
    """
    for _ in range(SETUPS):
        start = time.perf_counter()
        workload.make_inputs()
        workload.warm_up(rec)
        rec.samples["setup_s"].append(time.perf_counter() - start)
    workload.prepare()
    tracer = workload.tracer
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        while True:
            begun, attempted = time.perf_counter(), rec.attempted
            try:
                workload.round(rec)
            except ref.CheckFailed:
                raise
            except Exception:  # a program call raised: the rest of the round fails
                traceback.print_exc()
                left = workload.ops_per_round - (rec.attempted - attempted)
                rec.attempted += left
                rec.failed += left + 1
            rec.rounds += 1
            now = time.perf_counter()
            if now - start + (now - begun) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    workload.measure_rss(rec)
