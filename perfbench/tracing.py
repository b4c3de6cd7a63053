"""Span tracing of volrank's public functions, installed from outside the package.

:meth:`Tracer.install` replaces each function in :data:`TRACED`, in every
``volrank`` module namespace that holds it, by a wrapper that records one
span: name, start, end, the index of the enclosing span and the operation
the benchmark was running.  ``svd``, for one, is looked up as
``s3dsvd.svd``, ``baselines.svd`` and ``tensor_core.svd``, and ``unfold``
as ``tensor_core.unfold`` when ``mode_product`` calls it; all of them are
replaced.  Spans stay in memory and :meth:`Tracer.dump` writes them once.
"""

import functools
import json
import sys
import threading
import time

TRACED = (
    "tensor_core.svd",
    "tensor_core.unfold",
    "tensor_core.mode_product",
    "s3dsvd.decompose",
    "s3dsvd.reconstruct",
    "baselines.tucker_decompose",
    "baselines.tucker_reconstruct",
    "baselines.cpd_decompose",
    "baselines.cpd_reconstruct",
    "metrics.psnr",
    "metrics.mse",
    "metrics.rel_err",
    "metrics.per",
    "volume_io.read_model",
    "volume_io.write_model",
    "volume_io.read_volume",
    "volume_io.write_volume",
)

# Counters read from a span's result or its surroundings, with their units.
COUNTERS = {
    "cli.startup_s": "s",
    "baselines.hooi_sweeps": "count",
    "baselines.cpd_sweeps": "count",
    "baselines.cpd_sweep_ms": "ms",
    "baselines.cpd_converged": "count",
    "volume_io.read_model_bytes": "bytes",
}


def layer_metric_units():
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for name in TRACED:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
        units[f"{name}_calls"] = "count"
    units.update(COUNTERS)
    return units


def _rchar():
    """Bytes this process has read through read syscalls (``/proc/self/io``)."""
    try:
        with open("/proc/self/io", "rb") as fh:
            for line in fh:
                if line.startswith(b"rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class Tracer:
    """Records spans around volrank's public functions while installed."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, op, info]
        self.op = None      # label of the benchmark operation now running
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    def install(self):
        modules = [
            module for name, module in sys.modules.items()
            if name == "volrank" or name.startswith("volrank.")
        ]
        for qualified in TRACED:
            module_name, attr = qualified.split(".")
            original = getattr(sys.modules["volrank." + module_name], attr)
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        reads = name == "volume_io.read_model"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            before = _rchar() if reads else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if before is not None:
                span[5] = _rchar() - before
            elif name == "baselines.tucker_decompose":
                span[5] = len(result.fit_history) - 1
            elif name == "baselines.cpd_decompose":
                span[5] = [result.iterations_run, bool(result.converged)]
            return result

        return traced

    def layer_metrics(self, rounds, startup_s):
        """Per-layer metrics, each a mean per round of the traced run.

        A function's self time is its span's duration less the durations
        of its direct child spans.
        """
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        calls = dict.fromkeys(TRACED, 0)
        total = dict.fromkeys(TRACED, 0.0)
        own = dict.fromkeys(TRACED, 0.0)
        hooi = cpd_iters = cpd_converged = read_bytes = 0
        for index, (name, start, end, _, _, info) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - children[index]
            if name == "baselines.tucker_decompose":
                hooi += info
            elif name == "baselines.cpd_decompose":
                cpd_iters += info[0]
                cpd_converged += info[1]
            elif name == "volume_io.read_model" and info is not None:
                read_bytes += info
        out = {}
        for name in TRACED:
            out[f"{name}_s"] = total[name] / rounds
            out[f"{name}_self_s"] = own[name] / rounds
            out[f"{name}_calls"] = calls[name] / rounds
        reads = calls["volume_io.read_model"]
        out.update({
            "cli.startup_s": startup_s,
            "baselines.hooi_sweeps": hooi / rounds,
            "baselines.cpd_sweeps": cpd_iters / rounds,
            "baselines.cpd_sweep_ms": (
                1e3 * total["baselines.cpd_decompose"] / cpd_iters if cpd_iters else 0.0
            ),
            "baselines.cpd_converged": cpd_converged / rounds,
            "volume_io.read_model_bytes": read_bytes / reads if reads else 0.0,
        })
        return out

    def dump(self, path, header):
        """Write the header and every span as one JSON document."""
        keys = ("name", "start", "end", "parent", "op", "info")
        with open(path, "w") as fh:
            json.dump({**header, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
