"""volrank benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # every workload, untraced, seed 0

Run it from the root of a checkout: it tests the ``volrank`` under
``src/`` there.  Each workload runs in a worker process (``worker.py``);
the last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Result files, with the environment
block, go to ``perfbench/results/``.

The benchmark runs with the thread settings a user gets by default: it
removes ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``VOLRANK_THREADS``
from the environment of everything it starts, and records what it removed.
"""

import argparse
import json
import os
import shutil
import sys

import launcher
import tracing
from launcher import HERE, ROOT

WORKLOADS = ("progressive", "cli-compare", "cpd-study")
# A worker may run this much longer than --seconds: three set-ups, the round
# that ends the run, the peak-RSS probe and the checks.
WORKER_ALLOWANCE_S = 145
END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "ladder_s": "s",
    "sweep_s": "s",
    "psnr_db": "dB",
    "peak_rss_mb": "MB",
}
# Times the traced run compares with the untraced run of the same seed:
# in-process times of library calls, and the program's own timers for CLI
# calls (whose untraced wall times include process start-up).
OVERHEAD_KEYS = {
    "progressive": [("end_to_end", k) for k in ("fit_s", "ladder_s", "sweep_s")],
    "cli-compare": [("program_reported_s", k) for k in ("decompose_elapsed_s", "sweep_time_s")],
    "cpd-study": [("end_to_end", "fit_s"), ("end_to_end", "ladder_s"),
                  ("program_reported_s", "sweep_time_s")],
}


def run_worker(name, seed, seconds, trace, inherited):
    """Run one workload in a worker process; returns its result dict."""
    workdir = os.path.join(HERE, "work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "result.json")
    argv = [os.path.join(HERE, "worker.py"), name, str(seed), str(seconds), str(int(trace)),
            workdir, out, json.dumps(inherited)]
    try:
        code, _, _ = launcher.spawn(argv, seconds + WORKER_ALLOWANCE_S, stdout=sys.stderr)
        if code != 0:
            raise SystemExit(f"{name}: worker exited {code}")
        with open(out) as fh:
            result = json.load(fh)
        if trace:
            shutil.copyfile(out + ".spans", result_path(name, seed, trace, "spans"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def result_path(name, seed, trace, kind="result"):
    directory = os.path.join(HERE, "results")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{name}-seed{seed}-trace{int(trace)}.{kind}.json")


def tracing_overhead(result):
    """Traced against untraced times of the same workload and seed, if both ran."""
    untraced_path = result_path(result["workload"], result["seed"], 0)
    if not os.path.exists(untraced_path):
        return None
    with open(untraced_path) as fh:
        untraced = json.load(fh)
    overhead = {}
    for section, key in OVERHEAD_KEYS[result["workload"]]:
        traced, plain = result[section].get(key), untraced[section].get(key)
        if traced and plain:
            overhead[key] = {"traced_s": traced, "untraced_s": plain, "ratio": traced / plain}
    return overhead


def summary_line(result, trace):
    if trace:
        metrics, units = result["per_layer"], tracing.layer_metric_units()
    else:
        metrics, units = result["end_to_end"], END_TO_END_UNITS
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "volrank", "__init__.py")):
        print(f"run.py: no volrank package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    inherited = {name: os.environ.pop(name, None) for name in launcher.THREAD_VARS}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        result = run_worker(name, args.seed, args.seconds, args.trace, inherited)
        if args.trace:
            print(f"{name} traced end-to-end: " + json.dumps(result["end_to_end"]))
            result["tracing_overhead"] = tracing_overhead(result)
            print(f"{name} tracing overhead: " + json.dumps(result["tracing_overhead"]))
        with open(result_path(name, args.seed, args.trace), "w") as fh:
            json.dump(result, fh, indent=1)
        lines.append(summary_line(result, args.trace))
        if len(names) > 1:
            print(f"{name}: {lines[-1]}")
    if len(names) == 1:
        print(lines[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
