"""Report CPD/ALS quality, sweeps and fit time for one volrank source tree.

    python3 tools/cpd_core_report.py --tree PATH [--repeats N]

``PATH`` is a checkout (or its ``src`` directory) whose ``volrank`` is
imported, so running the script once on each of two checkouts gives a
before/after comparison of the same inputs.  It prints:

* for ``cpd-study``'s volume (``perfbench/reference.blob_volume`` at 64^3,
  no noise, blob seeds 0-2, built from this checkout's ``perfbench``, so
  both trees see the same bytes) one line per blob seed, k in (8, 16) and
  CPD seed in (0, 1): PSNR, sweeps, converged and the median standalone
  ``cpd_decompose`` time over ``--repeats`` fits;
* for acceptance C7's volume (the tree's ``gen_synthetic("blobs",
  (64, 64, 64), seed=0)``) one line per k in (8, 16, 24) and CPD seed
  0-9 with the same fields, each seed's time being its ``cpd_study`` row's
  ``time_s`` as C7 reads it, then C7's runtime-order clause: best of 3
  ``decompose`` and ``tucker_decompose`` times, the fastest CPD row, and
  the margins ``t_tucker - t_s3dsvd`` and ``t_cpd - t_tucker``, with the
  PSNR of each method (CPD as the mean over seeds).

It changes nothing on disk and adds no check; the thread settings are the
caller's and are printed first.
"""

import argparse
import math
import os
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
import reference  # noqa: E402  (cpd-study's volume, written with numpy alone)


def load(tree):
    src = os.path.join(tree, "src")
    sys.path.insert(0, src if os.path.isdir(os.path.join(src, "volrank")) else tree)
    import volrank

    return volrank


def fit_line(label, psnr, model, seconds):
    return (f"{label} psnr_db={psnr:.2f} sweeps={model.iterations_run}"
            f" converged={model.converged} fit_ms={1e3 * seconds:.1f}")


def cpd_study_volume(vr, repeats):
    print("# cpd-study volume: blob_volume((64, 64, 64), blob_seed, noise=0)")
    for blob_seed in (0, 1, 2):
        x = reference.blob_volume((64, 64, 64), blob_seed)
        for k in (8, 16):
            for seed in (0, 1):
                times = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    model = vr.cpd_decompose(x, k, seed)
                    times.append(time.perf_counter() - start)
                psnr = vr.psnr(x, vr.cpd_reconstruct(model))
                print(fit_line(f"blob_seed={blob_seed} k={k} seed={seed}", psnr, model,
                               statistics.median(times)))


def c7_volume(vr):
    print("# C7 volume: gen_synthetic('blobs', (64, 64, 64), seed=0), seeds 0-9")
    x = vr.gen_synthetic("blobs", (64, 64, 64), seed=0)
    vr.reconstruct(vr.decompose(x, 8), 8)  # warm-up, as C7 does
    seeds = tuple(range(10))
    for k in (8, 16, 24):
        t_s3 = t_tk = math.inf
        for _ in range(3):
            start = time.perf_counter()
            hosvd = vr.decompose(x, k)
            t_s3 = min(t_s3, time.perf_counter() - start)
        for _ in range(3):
            start = time.perf_counter()
            tucker = vr.tucker_decompose(x, k)
            t_tk = min(t_tk, time.perf_counter() - start)
        study = vr.cpd_study(x, k, seeds)
        for seed, row in study.runs:
            # The study keeps no models, so each seed's fit is repeated for
            # its sweep count; the time is the study row's.
            model = vr.cpd_decompose(x, k, seed)
            print(fit_line(f"k={k} seed={seed}", row["psnr_db"], model, row["time_s"]))
        t_cpd = min(row["time_s"] for _, row in study.runs)
        print(f"k={k} C7 psnr_db s3dsvd={vr.psnr(x, vr.reconstruct(hosvd, k)):.2f}"
              f" tucker={vr.psnr(x, vr.tucker_reconstruct(tucker)):.2f}"
              f" cpd_mean={study.mean['psnr_db']:.2f}"
              f" time_ms s3dsvd={1e3 * t_s3:.1f} tucker={1e3 * t_tk:.1f} cpd={1e3 * t_cpd:.1f}"
              f" margin_ms tucker-s3dsvd={1e3 * (t_tk - t_s3):.1f}"
              f" cpd-tucker={1e3 * (t_cpd - t_tk):.1f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", required=True, help="checkout whose volrank is measured")
    parser.add_argument("--repeats", type=int, default=3, help="fits per cpd-study line")
    args = parser.parse_args(argv)
    vr = load(os.path.abspath(args.tree))
    print(f"# volrank from {os.path.dirname(vr.__file__)}; numpy {np.__version__};"
          + "".join(f" {name}={os.environ.get(name, '')}"
                    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")))
    cpd_study_volume(vr, args.repeats)
    c7_volume(vr)


if __name__ == "__main__":
    main()
