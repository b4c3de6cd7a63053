"""Time and score library fits in one process, as a child of ``cli_cost_report.py``.

    python3 tools/fit_probe.py PLAN

``PLAN`` is the JSON object that ``cli_cost_report.children`` builds; the
volrank first on ``PYTHONPATH``, the tree being measured, is imported once
the arguments are parsed.  The last line of stderr is one JSON record,
with every time in seconds:

* ``factors``: for each ``[input, rank]`` of ``PLAN["factors"]``, the
  input's file name, the rank and ``mode_s``, the least of 3
  ``tensor_core.mode_factor`` times of each mode;
* ``c7``: acceptance C7's runtime order on the volume
  ``PLAN["c7"]["path"]``, after C7's warm-up.  For each k of
  ``PLAN["c7"]["ks"]`` it holds the least of 3 ``decompose`` and
  ``tucker_decompose`` times, the fastest ``cpd_study`` row over the seeds
  ``PLAN["c7"]["seeds"]``, each method's PSNR (CPD's the mean over the
  seeds), and each seed's sweep count and convergence, read off the study;
* ``cpd_fits``: for each k and seed of ``PLAN["cpd"]``, the PSNR, sweep
  count and convergence of a ``cpd_decompose`` fit on its volume and the
  least of 3 fit times.

It writes nothing else and adds no check; the thread settings are the
caller's.
"""

import argparse
import json
import math
import os
import sys
import time

REPEATS = 3


def best_s(call):
    """The least of :data:`REPEATS` times of ``call()``, and its last result."""
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def factors(vr, tc, path, rank):
    x = vr.read_volume(path)
    return {"input": os.path.basename(path), "rank": rank,
            "mode_s": [best_s(lambda: tc.mode_factor(x, mode, rank))[0] for mode in (1, 2, 3)]}


def c7(vr, path, ks, seeds):
    x = vr.read_volume(path)
    vr.reconstruct(vr.decompose(x, ks[0]), ks[0])  # warm-up, as C7 does
    rows = []
    for k in ks:
        t_s3, hosvd = best_s(lambda: vr.decompose(x, k))
        t_tk, tucker = best_s(lambda: vr.tucker_decompose(x, k))
        study = vr.cpd_study(x, k, tuple(seeds))
        rows.append({
            "k": k,
            "time_s": {"s3dsvd": t_s3, "tucker": t_tk,
                       "cpd": min(row["time_s"] for _, row in study.runs)},
            "psnr_db": {"s3dsvd": vr.psnr(x, vr.reconstruct(hosvd, k)),
                        "tucker": vr.psnr(x, vr.tucker_reconstruct(tucker)),
                        "cpd": study.mean["psnr_db"]},
            "sweeps": [len(history) for history in study.fit_histories],
            "converged": [seed not in study.unconverged for seed in study.seeds],
        })
    return rows


def cpd_fits(vr, path, ks, seeds):
    x = vr.read_volume(path)
    rows = []
    for k in ks:
        for seed in seeds:
            fit_s, model = best_s(lambda: vr.cpd_decompose(x, k, seed))
            rows.append({"k": k, "seed": seed, "fit_s": fit_s,
                         "psnr_db": vr.psnr(x, vr.cpd_reconstruct(model)),
                         "sweeps": model.iterations_run, "converged": model.converged})
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("plan", type=json.loads, help="inputs, ranks, levels and seeds, as JSON")
    plan = parser.parse_args(argv).plan
    import volrank as vr
    from volrank import tensor_core as tc

    record = {
        "factors": [factors(vr, tc, path, rank) for path, rank in plan["factors"]],
        "c7": c7(vr, **plan["c7"]),
        "cpd_fits": cpd_fits(vr, **plan["cpd"]),
    }
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    main()
