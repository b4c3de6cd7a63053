"""Time the benchmark's children on two volrank trees, in alternating pairs.

    python3 tools/cli_cost_report.py --parent TREE --change TREE --tag T
        [--pairs N] [--size N] [--seed N] [--out DIR]

Each ``TREE`` is a checkout whose ``src/volrank`` the children import.  Pair
``i`` runs every child once on each tree, the parent first in odd pairs and
the change first in even ones, so drift on a shared machine falls on both
sides alike.  The children are

* ``python -c pass`` and ``python -c "import volrank.cli"``, the interpreter's
  and the package's start-up;
* the ``cli-compare`` workload's CLI calls: ``decompose --rank 32``,
  ``reconstruct --k 4, 8, 16, 32`` of that model and the ``s3dsvd,tucker``
  sweep at k = 8, 16, 32, all on ``--size``^3 volumes (default 128);
* the ``cpd-study`` workload's ``cpd`` sweep at k = 8, 16 with seeds 0 and 1
  on a volume half that edge (64^3);
* the ``progressive`` workload's peak-RSS child, each tree's own
  ``perfbench/rss_probe.py`` at rank 48 with a sweep at k = 12, 24, 48 on a
  volume of 3/4, 1 and 5/4 times that edge (96x128x160);
* the library fits, this checkout's ``tools/fit_probe.py`` on the tree's
  volrank: per-mode factor times on the three workloads' volumes at their
  ranks, acceptance C7's runtime order, PSNRs and CPD sweeps on its
  ``blobs`` volume at half the edge (64^3), and ``cpd-study``'s CPD fits;
* ``reconstruct --k 32`` once more, run as the ``volrank`` script runs it
  (``cli.entry_point``) with ``cli.main`` wrapped to stamp the clock when
  it starts and returns, which splits the process into start-up, command
  and teardown.  ``time.perf_counter`` reads a clock every process
  shares, so the stamps and this process's own times line up.

So every child whose peak resident set a workload's ``peak_rss_mb`` takes
runs here.  A level or rank above a volume's edge is cut to the edge, so a
small ``--size`` still runs every kind of child.  The inputs are the
benchmark's, written by this checkout's ``perfbench/reference.py`` for the
run seed ``--seed`` (default 0), and C7's, written by the parent tree's
``gen_synthetic``, each once, so both trees read the same bytes; each tree
writes its outputs into a directory of its own.  Every child is started
through ``perfbench/launcher.py``'s ``spawn``, as the benchmark starts its
CLI calls, from this process, which imports nothing large.

For each child it prints both sides' median wall time and quartiles, in
how many pairs the change was faster (ties count for neither side), each
side's largest peak resident set with its range over the runs and its
failed runs, and for the split child the median of each part.  For the
library fits it prints, per k, the C7 margins ``t_tucker - t_s3dsvd`` and
``t_cpd - t_tucker`` as the split child's parts, and each side's PSNRs and
CPD sweeps in its first run, then each side's median factor time per mode
and each CPD fit's figures.

It writes ``BENCH_<tag>_parent.json`` and ``BENCH_<tag>_change.json`` into
``--out`` (default the current directory), each with every run of its side
(a library-fits run with its record as ``fits``) and the environment:
numpy's and its OpenBLAS's versions, whether the parent tree's volrank
found numpy's bundled OpenBLAS and ran its QR as LAPACK's ``dgeqrt`` or as
the ``np.linalg.qr`` fallback, the thread variables and
``PYTHONDONTWRITEBYTECODE``.  Thread settings are the caller's.  To
measure one tree, pass it as both ``--parent`` and ``--change``.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
FIT_PROBE = os.path.join(HERE, "fit_probe.py")
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
sys.path.insert(0, PERFBENCH)
import launcher  # noqa: E402  (the benchmark's spawner; imports nothing large)

TIMEOUT_S = 600
SIDES = ("parent", "change")
ENV_VARS = (*launcher.THREAD_VARS, "PYTHONDONTWRITEBYTECODE")
PARTS = ("startup_s", "command_s", "teardown_s")
# ``python -c`` program: the volrank script's run, stamping when main starts
# and returns as the last line of stderr.
STAMPED = """\
import sys, time
import volrank.cli as cli
main = cli.main
def stamped():
    start = time.perf_counter()
    code = main()
    print("stamps", start, time.perf_counter(), file=sys.stderr)
    return code
cli.main = stamped
cli.entry_point()
"""


def volumes(seed, size, scene_seed):
    """``{file name: (shape, volume seed, noise)}`` of each input at edge ``size``."""
    return {
        "cli-compare.s3dv": ((size,) * 3, seed, 0.05),
        "sweep.s3dv": ((size,) * 3, scene_seed, 0.05),
        "cpd-study.s3dv": ((max(1, size // 2),) * 3, seed, 0.0),
        "progressive.s3dv": ((max(1, 3 * size // 4), size, 5 * size // 4), seed, 0.05),
    }


def c7_shape(size):
    """Acceptance C7's volume shape at edge ``size``: 64^3 at the default 128."""
    return (max(1, size // 2),) * 3


def write_inputs(workdir, seed, size):
    """The inputs and the environment block, written into ``workdir``; run in a child."""
    import numpy as np
    import reference as ref
    from volrank import tensor_core as tc, volume_io

    for name, (shape, volume_seed, noise) in volumes(seed, size, ref.SCENE_SEED).items():
        ref.write_s3dv(os.path.join(workdir, name), ref.blob_volume(shape, volume_seed, noise))
    ref.write_s3dv(os.path.join(workdir, "c7.s3dv"),
                   volume_io.gen_synthetic("blobs", c7_shape(size), seed=0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    openblas = tc._openblas()
    env = {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "numpy_blas": {key: blas.get(key) for key in ("name", "version")},
        "bundled_openblas": openblas is not None,
        "qr_kernel": "dgeqrt" if hasattr(openblas, "scipy_dgeqrt_64_") else "np.linalg.qr",
        **{name: os.environ.get(name) for name in ENV_VARS},
    }
    with open(os.path.join(workdir, "env.json"), "w") as fh:
        json.dump(env, fh)


def _levels(ks, edge):
    """``ks`` cut to ``edge``, distinct and increasing."""
    return sorted({min(k, edge) for k in ks})


def _csv(values):
    return ",".join(map(str, values))


def children(tree, workdir, outdir, size):
    """``(label, python argv)`` of each measured child of ``tree``, in running order."""
    def inp(name):
        return os.path.join(workdir, name)

    def out(name):
        return os.path.join(outdir, name)

    def cli(*argv):
        return ["-m", "volrank.cli", *map(str, argv)]

    rank = min(32, size)
    ks = _csv(_levels((8, 16, 32), size))
    half = max(1, size // 2)
    cpd_ks, cpd_seeds = _levels((8, 16), half), [0, 1]
    probe_rank = min(48, max(1, 3 * size // 4))
    probe_ks = _csv(_levels((12, 24, 48), probe_rank))
    plan = {
        "factors": [[inp("cli-compare.s3dv"), rank], [inp("progressive.s3dv"), probe_rank],
                    [inp("cpd-study.s3dv"), min(2 * cpd_ks[-1], half)]],
        "c7": {"path": inp("c7.s3dv"), "ks": _levels((8, 16, 24), half),
               "seeds": list(range(10))},
        "cpd": {"path": inp("cpd-study.s3dv"), "ks": cpd_ks, "seeds": cpd_seeds},
    }
    found = [
        ("python -c pass", ["-c", "pass"]),
        ("import volrank.cli", ["-c", "import volrank.cli"]),
        (f"decompose --rank {rank}",
         cli("decompose", "--input", inp("cli-compare.s3dv"), "--method", "s3dsvd",
             "--rank", rank, "--output", out("model.s3dm"))),
    ]
    def reconstruct(k):
        return ["reconstruct", "--input", out("model.s3dm"), "--k", str(k),
                "--output", out("recon.s3dv")]

    found += [(f"reconstruct --k {k}", cli(*reconstruct(k)))
              for k in _levels((4, 8, 16, 32), rank)]
    found += [
        (f"sweep s3dsvd,tucker --ks {ks}",
         cli("sweep", "--input", inp("sweep.s3dv"), "--method", "s3dsvd,tucker", "--ks", ks,
             "--csv", out("sweep.csv"))),
        (f"cpd-study sweep cpd --ks {_csv(cpd_ks)}",
         cli("sweep", "--input", inp("cpd-study.s3dv"), "--method", "cpd", "--ks", _csv(cpd_ks),
             "--seeds", _csv(cpd_seeds), "--csv", out("cpd.csv"))),
        (f"progressive rss_probe.py {probe_rank} {probe_ks}",
         [os.path.join(tree, "perfbench", "rss_probe.py"), inp("progressive.s3dv"),
          out("probe.s3dm"), str(probe_rank), probe_ks]),
        ("library fits fit_probe.py", [FIT_PROBE, json.dumps(plan)]),
        (f"reconstruct --k {rank}, split", ["-c", STAMPED, *reconstruct(rank)]),
    ]
    return found


def spawn(tree, argv, err_path):
    """``launcher.spawn`` of ``python argv...`` importing ``tree``'s volrank."""
    # child_env() puts ROOT/src first on the child's PYTHONPATH.
    launcher.ROOT = tree
    with open(err_path, "w") as err:
        return launcher.spawn(argv, TIMEOUT_S, stderr=err)


def measure(tree, argv, err_path):
    """One run of a child as a record; a :data:`STAMPED` child's also holds its :data:`PARTS`."""
    began = time.perf_counter()
    code, wall_s, rss_mb = spawn(tree, argv, err_path)
    record = {"exit_code": code, "wall_s": wall_s, "peak_rss_mb": rss_mb}
    if code == 0 and argv[:2] == ["-c", STAMPED]:
        with open(err_path) as err:
            start, returned = map(float, err.read().split()[-2:])
        record.update(zip(PARTS, (start - began, returned - start, began + wall_s - returned)))
    elif code == 0 and argv[0] == FIT_PROBE:
        with open(err_path) as err:
            record["fits"] = json.loads(err.read().splitlines()[-1])
    return record


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _ms(values):
    q1, q3 = _quartiles(values)
    return f"{1e3 * statistics.median(values):.1f} ms [{1e3 * q1:.1f}-{1e3 * q3:.1f}]"


def _paired(label, values, word="shorter"):
    """An indented line comparing ``values``, ``(parent, change)`` seconds by pair.

    It counts the pairs where the change's value is ``word``: shorter or larger.
    """
    sides = "; ".join(f"{side} {_ms([pair[i] for pair in values])}"
                      for i, side in enumerate(SIDES))
    count = sum(c > p if word == "larger" else c < p for p, c in values)
    return f"  {label}: {sides}; change {word} in {count}/{len(values)}"


# One side's figures of one C7 level, factor or CPD fit, given its rows by
# run; PSNRs, sweeps and convergence are its first run's.
def _c7_quality(rows):
    row = rows[0]
    psnr = " ".join(f"{method} {db:.2f}" for method, db in row["psnr_db"].items())
    return (f"psnr_db {psnr}, cpd sweeps {min(row['sweeps'])}-{max(row['sweeps'])}"
            f" converged {sum(row['converged'])}/{len(row['converged'])}")


def _mode_medians(rows):
    modes = zip(*(row["mode_s"] for row in rows))
    return " ".join(f"{1e3 * statistics.median(mode):.2f}" for mode in modes) + " ms"


def _cpd_fit(rows):
    row = rows[0]
    return (f"psnr_db {row['psnr_db']:.2f}, sweeps {row['sweeps']} converged {row['converged']},"
            f" fit {_ms([row['fit_s'] for row in rows])}")


def fit_summary(runs):
    """Indented lines comparing the :data:`FIT_PROBE` records of ``runs[side]`` by pair."""
    pairs = [(p["fits"], c["fits"]) for p, c in zip(runs["parent"], runs["change"])
             if "fits" in p and "fits" in c]
    if not pairs:
        return []
    fits = dict(zip(SIDES, zip(*pairs)))

    def compare(label, key, i, show):
        rows = {side: [record[key][i] for record in fits[side]] for side in SIDES}
        return f"  {label}: " + "; ".join(f"{side} {show(rows[side])}" for side in SIDES)

    lines = []
    first = fits["parent"][0]
    for i, entry in enumerate(first["c7"]):
        for late, early in (("tucker", "s3dsvd"), ("cpd", "tucker")):
            def margin(row):
                return row["time_s"][late] - row["time_s"][early]
            lines.append(_paired(f"C7 k={entry['k']} t_{late} - t_{early}",
                                 [(margin(p["c7"][i]), margin(c["c7"][i])) for p, c in pairs],
                                 "larger"))
        lines.append(compare(f"C7 k={entry['k']}", "c7", i, _c7_quality))
    for i, entry in enumerate(first["factors"]):
        lines.append(compare(f"mode_factor {entry['input']} r={entry['rank']}, modes 1 2 3",
                             "factors", i, _mode_medians))
    for i, entry in enumerate(first["cpd_fits"]):
        lines.append(compare(f"cpd-study k={entry['k']} seed={entry['seed']}", "cpd_fits", i,
                             _cpd_fit))
    return lines


def summary(label, runs):
    """Lines comparing ``runs[side]``, each side's records of one child by pair."""
    parts = []
    for side in SIDES:
        ok = [run for run in runs[side] if run["exit_code"] == 0]
        timing = _ms([run["wall_s"] for run in ok]) if ok else "no run succeeded"
        peaks = [run["peak_rss_mb"] for run in runs[side]]
        parts.append(f"{side} {timing} rss {max(peaks):.1f} MB"
                     f" (runs {min(peaks):.1f}-{max(peaks):.1f})"
                     f" failed {len(runs[side]) - len(ok)}/{len(runs[side])}")
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"])
             if p["exit_code"] == c["exit_code"] == 0]
    lines = [f"{label}: " + "; ".join(parts) + "; change faster in"
             f" {sum(c['wall_s'] < p['wall_s'] for p, c in pairs)}/{len(pairs)}",
             *fit_summary(runs)]
    if pairs and PARTS[0] in pairs[0][0]:
        lines += [_paired(part[:-2], [(p[part], c[part]) for p, c in pairs]) for part in PARTS]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout measured as the parent")
    parser.add_argument("--change", required=True, help="checkout measured as the change")
    parser.add_argument("--tag", required=True, help="names the BENCH_<tag>_*.json files")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs to run")
    parser.add_argument("--size", type=int, default=128, help="edge of the cli-compare volumes")
    parser.add_argument("--seed", type=int, default=0, help="the benchmark's run seed")
    parser.add_argument("--out", default=".", help="directory for the BENCH files")
    parser.add_argument("--write-inputs", metavar="DIR", help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else [str(arg) for arg in argv]
    args = parser.parse_args(argv)
    if args.write_inputs:
        write_inputs(args.write_inputs, args.seed, args.size)
        return
    if args.pairs < 1 or args.size < 1:
        parser.error("--pairs and --size must be at least 1")
    trees = {side: os.path.abspath(getattr(args, side)) for side in SIDES}
    with tempfile.TemporaryDirectory() as workdir:
        err_path = os.path.join(workdir, "stderr.txt")
        writer = [os.path.abspath(__file__), "--parent", trees["parent"], "--change",
                  trees["change"], "--tag", args.tag, "--seed", str(args.seed),
                  "--size", str(args.size), "--write-inputs", workdir]
        code, _, _ = spawn(trees["parent"], writer, err_path)
        if code != 0:
            with open(err_path) as err:
                sys.exit(f"writing the inputs failed ({code}): {err.read().strip()}")
        with open(os.path.join(workdir, "env.json")) as fh:
            env = json.load(fh)
        plans = {}
        for side in SIDES:
            os.mkdir(os.path.join(workdir, side))
            plans[side] = children(trees[side], workdir, os.path.join(workdir, side),
                                   args.size)
        labels = [label for label, _ in plans["parent"]]
        runs = {side: {label: [] for label in labels} for side in SIDES}
        records = {side: [] for side in SIDES}
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                for label, child in plans[side]:
                    record = measure(trees[side], child, err_path)
                    runs[side][label].append(record)
                    records[side].append({"pair": pair, "first": order[0], "child": label,
                                          **record})
    print(f"# {args.pairs} pairs, parent first in odd pairs; size {args.size}; seed {args.seed};"
          + "".join(f" {name}={env[name] or ''}" for name in ENV_VARS))
    for label in labels:
        print(summary(label, {side: runs[side][label] for side in SIDES}))
    command = " ".join(["python3", "tools/cli_cost_report.py", *argv])
    for side in SIDES:
        path = os.path.join(args.out, f"BENCH_{args.tag}_{side}.json")
        with open(path, "w") as fh:
            json.dump({"command": command, "env": env,
                       "paired_runs": f"{args.pairs} pairs, parent first in odd pairs",
                       "side": side, "tree": getattr(args, side), "pairs": records[side]},
                      fh, indent=1)
        print(f"# wrote {path}")


if __name__ == "__main__":
    main()
