"""Runs one workload in this process and writes its result as JSON.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR OUT INHERITED

``run.py`` starts it with ``src`` first on ``PYTHONPATH``; INHERITED is the
JSON object of the thread settings ``run.py`` removed from the environment.
With TRACE 1 the CLI calls go through ``volrank.cli.main`` here, every
traced function records spans, and the result holds the per-layer metrics.
"""

import json
import os
import platform
import resource
import statistics
import sys

import numpy as np
import scipy

import launcher
import reference as ref
import tracing
import workloads

STARTUP_SAMPLES = 3


def _blas(show_config):
    """The BLAS build that ``show_config(mode="dicts")`` reports."""
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def environment(inherited):
    """Library versions, BLAS builds and thread settings of this run."""
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "threads_inherited": inherited,
        "threads_in_effect": {name: os.environ.get(name) for name in launcher.THREAD_VARS},
    }


def _import_volrank():
    import volrank

    src = os.path.join(launcher.ROOT, "src") + os.sep
    if not volrank.__file__.startswith(src):
        raise SystemExit(f"volrank imported from {volrank.__file__}, not from {src}")


def main(argv):
    name, seed, seconds, trace, workdir, out, inherited = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    cls = workloads.WORKLOADS[name]
    if trace or cls.in_process:
        _import_volrank()
    tracer = tracing.Tracer() if trace else None
    procs = workloads.Processes(workdir)
    try:
        workload = cls(workdir, seed, procs, tracer)
        rec = workloads.Record()
        correct = True
        try:
            workloads.run(workload, seconds, rec)
        except ref.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        result = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "env": environment(json.loads(inherited)),
            "correct": correct,
            "attempted": rec.attempted,
            "failed": rec.failed,
            "rounds": rec.rounds,
            "end_to_end": workload.metrics(rec),
            "program_reported_s": {key: statistics.median(v) for key, v in rec.program.items()},
            "samples": rec.samples,
            # This process's own peak: the benchmark's work plus any in-process
            # library calls.  Not a metric; peak_rss_mb comes from child processes.
            "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if trace:
            startup = statistics.median(procs(["--help"]).wall_s for _ in range(STARTUP_SAMPLES))
            result["per_layer"] = tracer.layer_metrics(max(rec.rounds, 1), startup)
            tracer.dump(out + ".spans", {"workload": name, "seed": seed, "env": result["env"]})
    finally:
        procs.close()
    with open(out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
