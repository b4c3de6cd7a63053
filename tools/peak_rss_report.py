"""Report the peak resident set and wall time of each benchmark child for one volrank tree.

    python3 tools/peak_rss_report.py --tree PATH [--repeats N] [--seed N]

``PATH`` is a checkout whose ``src/volrank`` the children import and whose
``perfbench/rss_probe.py`` runs, so running the script once on each of two
checkouts gives a before/after comparison of the same inputs.  The inputs
are the benchmark's, made by this checkout's ``perfbench/reference.py``
for the run seed ``--seed`` (default 0), so both trees see the same bytes.
It runs, ``--repeats`` times each (default 3), the children whose peak
resident sets a workload's ``peak_rss_mb`` takes its maximum over:

* ``cli-compare``: ``decompose`` at rank 32, ``reconstruct --k 32`` of that
  model and the ``s3dsvd,tucker`` sweep at k = 8, 16, 32, all at 128^3;
* ``cpd-study``: the ``cpd`` sweep at k = 8, 16 with seeds 0 and 1 at 64^3;
* ``progressive``: ``perfbench/rss_probe.py`` at rank 48 on 96x128x160.

For each it prints the largest peak RSS in MB, its range over the repeats
and the median wall time.  Peak resident sets are taken as
``perfbench/launcher.py`` takes them, and for its reason every child is
started from this process, which imports nothing large; the inputs are
written by a child of their own.  It changes nothing in either checkout
and adds no check; the thread settings are the caller's.
"""

import argparse
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
sys.path.insert(0, PERFBENCH)
import launcher  # noqa: E402  (the benchmark's spawner; imports nothing large)

TIMEOUT_S = 600


def write_inputs(workdir, seed):
    """The benchmark's input volumes, written into ``workdir``; run in a child."""
    import reference as ref

    volumes = {
        "cli-compare.s3dv": ((128, 128, 128), seed, 0.05),
        "sweep.s3dv": ((128, 128, 128), ref.SCENE_SEED, 0.05),
        "cpd-study.s3dv": ((64, 64, 64), seed, 0.0),
        "progressive.s3dv": ((96, 128, 160), seed, 0.05),
    }
    for name, (shape, volume_seed, noise) in volumes.items():
        ref.write_s3dv(os.path.join(workdir, name), ref.blob_volume(shape, volume_seed, noise))


def children(tree, workdir):
    """``(label, python argv)`` of each measured child, in running order."""
    def path(name):
        return os.path.join(workdir, name)

    def cli(*argv):
        return ["-m", "volrank.cli", *argv]

    return [
        ("cli-compare decompose --rank 32",
         cli("decompose", "--input", path("cli-compare.s3dv"), "--method", "s3dsvd",
             "--rank", "32", "--output", path("model.s3dm"))),
        ("cli-compare reconstruct --k 32",
         cli("reconstruct", "--input", path("model.s3dm"), "--k", "32",
             "--output", path("recon.s3dv"))),
        ("cli-compare sweep s3dsvd,tucker",
         cli("sweep", "--input", path("sweep.s3dv"), "--method", "s3dsvd,tucker",
             "--ks", "8,16,32", "--csv", path("sweep.csv"))),
        ("cpd-study sweep cpd",
         cli("sweep", "--input", path("cpd-study.s3dv"), "--method", "cpd", "--ks", "8,16",
             "--seeds", "0,1", "--csv", path("cpd.csv"))),
        ("progressive rss_probe.py",
         [os.path.join(tree, "perfbench", "rss_probe.py"), path("progressive.s3dv"),
          path("probe.s3dm"), "48", "12,24,48"]),
    ]


def run(argv, workdir):
    """``launcher.spawn`` of ``python argv...``; exits with the child's stderr if it fails."""
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "w") as err:
        code, wall_s, rss_mb = launcher.spawn(argv, TIMEOUT_S, stderr=err)
    if code != 0:
        with open(err_path) as err:
            sys.exit(f"python {' '.join(argv)} exited {code}: {err.read().strip()}")
    return wall_s, rss_mb


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", required=True, help="checkout whose volrank is measured")
    parser.add_argument("--repeats", type=int, default=3, help="runs per child")
    parser.add_argument("--seed", type=int, default=0, help="the benchmark's run seed")
    parser.add_argument("--write-inputs", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_inputs:
        write_inputs(args.write_inputs, args.seed)
        return
    tree = os.path.abspath(args.tree)
    # child_env() puts ROOT/src first on every child's PYTHONPATH.
    launcher.ROOT = tree
    print(f"# volrank from {os.path.join(tree, 'src')}; seed {args.seed};"
          f" {args.repeats} runs per child;"
          + "".join(f" {name}={os.environ.get(name, '')}" for name in launcher.THREAD_VARS))
    with tempfile.TemporaryDirectory() as workdir:
        run([os.path.abspath(__file__), "--tree", tree, "--seed", str(args.seed),
             "--write-inputs", workdir], workdir)
        for label, child in children(tree, workdir):
            walls, peaks = zip(*(run(child, workdir) for _ in range(args.repeats)))
            print(f"{label}: peak_rss_mb={max(peaks):.1f} (runs {min(peaks):.1f}-{max(peaks):.1f})"
                  f" wall_s={statistics.median(walls):.3f}")


if __name__ == "__main__":
    main()
