"""Report per-mode factor times under volrank's two QR kernels.

    python3 tools/qr_kernel_report.py [--tree PATH] [--repeats N]

``PATH`` is a checkout (or its ``src`` directory) whose ``volrank`` is
imported; the default is the checkout holding this script.  For the
benchmark's three volume shapes and ranks (64^3 at r = 32, 96x128x160 at
r = 48 and 128^3 at r = 32, each the tree's ``gen_synthetic("blobs_noisy",
dims, seed=0)``) it prints one line per mode:

* ``lapack_ms``: the least ``mode_factor`` time over ``--repeats`` calls
  (default 10) with the tree's TSQR kernel, ``tensor_core._qr_r``, which
  runs LAPACK's ``dgeqrt`` from numpy's bundled OpenBLAS when it is there;
* ``numpy_ms``: the same with ``_qr_r`` replaced by its fallback,
  ``np.linalg.qr(a, mode="r")``;
* ``max_du``: the largest entry of ``|u_lapack - u_numpy|``.

The two kernels alternate call by call.  ``mode_factor`` holds numpy's
OpenBLAS at one thread either way.  The script uses only the standard
library and numpy, changes nothing on disk and adds no check; the line
before the table says whether ``dgeqrt`` was found.
"""

import argparse
import functools
import math
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
FITS = (((64, 64, 64), 32), ((96, 128, 160), 48), ((128, 128, 128), 32))


def load(tree):
    src = os.path.join(tree, "src")
    sys.path.insert(0, src if os.path.isdir(os.path.join(src, "volrank")) else tree)
    import volrank
    from volrank import tensor_core

    return volrank, tensor_core


def timed(call):
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=os.path.dirname(HERE),
                        help="checkout whose volrank is measured (default: this one)")
    parser.add_argument("--repeats", type=int, default=10, help="calls per kernel and mode")
    args = parser.parse_args(argv)
    vr, tc = load(os.path.abspath(args.tree))
    lapack = tc._qr_r
    numpy_qr = functools.partial(np.linalg.qr, mode="r")
    found = getattr(tc._openblas(), "scipy_dgeqrt_64_", None) is not None
    print(f"# volrank from {os.path.dirname(vr.__file__)}; numpy {np.__version__};"
          f" dgeqrt found={found}")
    for dims, r in FITS:
        x = vr.gen_synthetic("blobs_noisy", dims, seed=0)
        for mode in (1, 2, 3):
            best = {lapack: math.inf, numpy_qr: math.inf}
            factor = {}
            for _ in range(args.repeats):
                for kernel in best:
                    tc._qr_r = kernel
                    try:
                        seconds, factor[kernel] = timed(lambda: tc.mode_factor(x, mode, r))
                    finally:
                        tc._qr_r = lapack
                    best[kernel] = min(best[kernel], seconds)
            du = float(np.max(np.abs(factor[lapack] - factor[numpy_qr])))
            print(f"{'x'.join(map(str, dims))} r={r} mode={mode}"
                  f" lapack_ms={1e3 * best[lapack]:.2f} numpy_ms={1e3 * best[numpy_qr]:.2f}"
                  f" max_du={du:.1e}")


if __name__ == "__main__":
    main()
