"""Starts the benchmark's child processes from a small process.

On Linux a child's peak resident set, as ``os.wait4`` reports it, is at
least the peak of the process it was forked from: ``python -c pass`` started
from a process that had once held 300 MB reports 327 MB, against 27 MB from
a fresh one.  A worker that holds volumes and checks outputs would so lend
its own peak to every CLI child.  It therefore starts this process first,
before anything large, and has it start every measured child.

    python3 perfbench/launcher.py

reads one JSON request per line on stdin, ``[argv, timeout_s, stderr_path]``,
runs ``python argv...`` and writes one JSON reply per line on stdout,
``[exit_code, wall_s, peak_rss_mb]``.  It ends at the end of its input.
This module imports nothing large, so it is also the benchmark's one place
that spawns processes.
"""

import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Thread settings that run.py removes from the environment of everything it
# starts, so the benchmark runs with a user's defaults.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "VOLRANK_THREADS")


def child_env():
    """This process's environment with ``ROOT/src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    rest = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p and p != src]
    env["PYTHONPATH"] = os.pathsep.join([src, *rest])
    return env


def spawn(argv, timeout_s, stdout=subprocess.DEVNULL, stderr=None):
    """Run ``python argv...`` under :func:`child_env`, killing it after ``timeout_s``.

    Returns its exit code, wall time and peak resident set in MB.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024.0


def main():
    for line in sys.stdin:
        argv, timeout_s, stderr_path = json.loads(line)
        with open(stderr_path, "w") as err:
            reply = spawn(argv, timeout_s, stderr=err)
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
