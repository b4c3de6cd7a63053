"""Time the benchmark's CLI children on two volrank trees, in alternating pairs.

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
* ``reconstruct --k 32`` once more, run as the ``volrank`` script runs it
  (``cli.entry_point``) with ``cli.main`` wrapped to stamp the clock when
  it starts and returns, which splits the process into start-up, command
  and teardown.  ``time.perf_counter`` reads a clock every process
  shares, so the stamps and this process's own times line up.

A level above a volume's edge is cut to the edge, so a small ``--size``
still runs every kind of child.  The inputs are the benchmark's, written by
this checkout's ``perfbench/reference.py`` for the run seed ``--seed``
(default 0), so both trees read the same bytes, and each tree writes its
outputs into a directory of its own.  Every child is started through
``perfbench/launcher.py``'s ``spawn``, as the benchmark starts its CLI
calls, from this process, which imports nothing large.

For each child it prints both sides' median wall time and quartiles, in
how many pairs the change was faster (ties count for neither side), each
side's largest peak resident set and its failed runs, and for the split
child the median of each part.  It writes
``BENCH_<tag>_parent.json`` and ``BENCH_<tag>_change.json`` into ``--out``
(default the current directory), each with every run of its side and the
environment: numpy's and its OpenBLAS's versions, the thread variables and
``PYTHONDONTWRITEBYTECODE``.  Thread settings are the caller's.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
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


def write_inputs(workdir, seed, size):
    """The inputs and the environment block, written into ``workdir``; run in a child."""
    import numpy as np
    import reference as ref

    half = max(1, size // 2)
    volumes = {
        "cli-compare.s3dv": ((size,) * 3, seed, 0.05),
        "sweep.s3dv": ((size,) * 3, ref.SCENE_SEED, 0.05),
        "cpd-study.s3dv": ((half,) * 3, seed, 0.0),
    }
    for name, (shape, volume_seed, noise) in volumes.items():
        ref.write_s3dv(os.path.join(workdir, name), ref.blob_volume(shape, volume_seed, noise))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "numpy_blas": {key: blas.get(key) for key in ("name", "version")},
        **{name: os.environ.get(name) for name in ENV_VARS},
    }
    with open(os.path.join(workdir, "env.json"), "w") as fh:
        json.dump(env, fh)


def _levels(ks, edge):
    """``ks`` cut to ``edge``, distinct and increasing."""
    return sorted({min(k, edge) for k in ks})


def children(workdir, outdir, size):
    """``(label, python argv)`` of each measured child, in running order."""
    def inp(name):
        return os.path.join(workdir, name)

    def out(name):
        return os.path.join(outdir, name)

    def cli(*argv):
        return ["-m", "volrank.cli", *map(str, argv)]

    rank = min(32, size)
    ks = ",".join(map(str, _levels((8, 16, 32), size)))
    cpd_ks = ",".join(map(str, _levels((8, 16), max(1, size // 2))))
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
        (f"cpd-study sweep cpd --ks {cpd_ks}",
         cli("sweep", "--input", inp("cpd-study.s3dv"), "--method", "cpd", "--ks", cpd_ks,
             "--seeds", "0,1", "--csv", out("cpd.csv"))),
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
    return record


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _ms(values):
    q1, q3 = _quartiles(values)
    return f"{1e3 * statistics.median(values):.1f} ms [{1e3 * q1:.1f}-{1e3 * q3:.1f}]"


def summary(label, runs):
    """Lines comparing ``runs[side]``, each side's records of one child by pair."""
    parts = []
    for side in SIDES:
        ok = [run for run in runs[side] if run["exit_code"] == 0]
        timing = _ms([run["wall_s"] for run in ok]) if ok else "no run succeeded"
        peak = max(run["peak_rss_mb"] for run in runs[side])
        parts.append(f"{side} {timing} rss {peak:.1f} MB"
                     f" failed {len(runs[side]) - len(ok)}/{len(runs[side])}")
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"])
             if p["exit_code"] == c["exit_code"] == 0]
    lines = [f"{label}: " + "; ".join(parts) + "; change faster in"
             f" {sum(c['wall_s'] < p['wall_s'] for p, c in pairs)}/{len(pairs)}"]
    if pairs and PARTS[0] in pairs[0][0]:
        for part in PARTS:
            sides = [f"{side} {_ms([pair[i][part] for pair in pairs])}"
                     for i, side in enumerate(SIDES)]
            shorter = sum(c[part] < p[part] for p, c in pairs)
            lines.append(f"  {part[:-2]}: " + "; ".join(sides)
                         + f"; change shorter in {shorter}/{len(pairs)}")
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
            plans[side] = children(workdir, os.path.join(workdir, side), args.size)
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
