"""Benchmark command line front end.

Subcommands: ``gen`` (synthetic volumes), ``decompose``, ``reconstruct``,
``metrics``, ``sweep`` (method/k benchmark grid as CSV), and ``plotdata``
(extract per-k curves from a sweep CSV).

Exit codes: 0 success, 2 usage or argument error, 3 malformed input
file, 4 numeric failure, 5 file system error.  Runtime errors print a
single machine-readable line on stderr:
``volrank: error: <ErrorType>: <message>``.

Floats are written with ``repr``'s shortest round-trip formatting, with
``inf`` spelled literally, so CSV output is byte-stable across runs.
``VOLRANK_THREADS`` caps sweep parallelism (default 1, serial).
"""

import argparse
import csv
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import baselines, metrics, s3dsvd, volume_io
from .baselines import CpModel, TuckerModel
from .errors import DegenerateInputError, NumericError, ParseError

__all__ = ["SweepResult", "entry_point", "main", "run_sweep"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

PER_THRESHOLD = 0.99
DEFAULT_SEEDS = tuple(range(10))


def _fmt(value):
    """Shortest round-trip decimal form; empty for missing cells."""
    return "" if value is None else repr(float(value))


def _int_list(text, what, minimum=0):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be comma-separated integers")
    if not values:
        raise argparse.ArgumentTypeError(f"{what} must not be empty")
    if min(values) < minimum:
        raise argparse.ArgumentTypeError(f"{what} entries must be >= {minimum}")
    return values


def _dims_arg(text):
    dims = _int_list(text, "--dims", minimum=1)
    if len(dims) != 3:
        raise argparse.ArgumentTypeError("--dims must be three comma-separated integers")
    return tuple(dims)


def _ks_arg(text):
    ks = _int_list(text, "--ks", minimum=1)
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise argparse.ArgumentTypeError("--ks must be strictly increasing")
    return ks


def _seeds_arg(text):
    return _int_list(text, "--seeds", minimum=0)


def _slices_arg(text):
    return _int_list(text, "--slices", minimum=0)


def _methods_arg(text):
    methods = [part.strip() for part in text.split(",") if part.strip()]
    if not methods:
        raise argparse.ArgumentTypeError("--method must not be empty")
    for name in methods:
        if name not in ("s3dsvd", "tucker", "cpd"):
            raise argparse.ArgumentTypeError(
                f"unknown method {name!r}; expected s3dsvd, tucker, or cpd"
            )
    if len(set(methods)) != len(methods):
        raise argparse.ArgumentTypeError("--method entries must be unique")
    return methods


def _threads_from_env():
    raw = os.environ.get("VOLRANK_THREADS", "")
    if not raw.strip():
        return 1
    try:
        threads = int(raw)
    except ValueError:
        raise ValueError(f"VOLRANK_THREADS must be an integer, got {raw!r}")
    return max(1, threads)


@dataclass(frozen=True)
class SweepResult:
    """Benchmark grid rows, one dict per method and k.

    A wrapper rather than the bare rows because the benchmark harness
    (``perfbench/``) reads ``run_sweep(...).rows``.
    """

    rows: tuple


# The CSV column that holds each study metric's confidence half-width.
_CI_COLUMNS = {
    "psnr_db": "psnr_ci",
    "mse": "mse_ci",
    "rel_err": "relerr_ci",
    "time_s": "time_ci",
}


def run_sweep(x, methods, ks, seeds=DEFAULT_SEEDS, threads=1, log=None):
    """Benchmark ``methods`` at every k in ``ks`` against volume ``x``.

    Every row's time is fit time only.  s3dsvd and tucker share one
    ``decompose(x, max(ks))``, computed before any row, so a level beyond
    the volume fails before any method is fitted.  s3dsvd truncates it
    per k, charging each row an equal share of its time.  Each tucker k
    starts HOOI from its leading k factor columns, which are
    ``decompose(x, k)``'s, and is charged the whole decompose time plus
    its own HOOI time: what a standalone ``tucker_decompose`` costs.  cpd
    refits per k, each row aggregating one run per seed, with ``threads``
    capping study parallelism.
    """

    def say(message):
        if log is not None:
            print(message, file=log)

    rows = []
    if "s3dsvd" in methods or "tucker" in methods:
        start = time.perf_counter()
        hosvd = s3dsvd.decompose(x, max(ks))
        hosvd_s = time.perf_counter() - start
    for method in methods:
        if method == "s3dsvd":
            for k in ks:
                xhat = s3dsvd.reconstruct(hosvd, k)
                per = metrics.per(hosvd, k)
                rows.append(metrics.score(x, xhat, "s3dsvd", k, per, hosvd_s / len(ks)))
                say(f"sweep method=s3dsvd k={k} done")
            say(
                f"per threshold {_fmt(PER_THRESHOLD)} first reached at"
                f" k={metrics.select_rank_by_per(hosvd, PER_THRESHOLD)}"
            )
        elif method == "tucker":
            for k in ks:
                start = time.perf_counter()
                model = baselines._hooi(x, hosvd, k)
                elapsed = hosvd_s + (time.perf_counter() - start)
                xhat = baselines.tucker_reconstruct(model)
                rows.append(metrics.score(x, xhat, "tucker", k, time_s=elapsed))
                say(f"sweep method=tucker k={k} done")
        else:
            for k in ks:
                study = baselines.cpd_study(x, k, seeds, threads=threads)
                ci = {_CI_COLUMNS[m]: h for m, h in study.ci_halfwidth.items()}
                rows.append({"method": "cpd", "k": k, **study.mean, "per": None, **ci})
                stuck = study.unconverged
                say(
                    f"sweep method=cpd k={k} done ({len(seeds)} seeds,"
                    f" {len(stuck)} unconverged: {list(stuck)})"
                )
    return SweepResult(rows=tuple(rows))


def _csv_columns(with_ci, with_timing):
    columns = ["method", "k", "psnr_db", "mse", "rel_err", "per"]
    if with_timing:
        columns.append("time_s")
    if with_ci:
        columns.extend(["psnr_ci", "mse_ci", "relerr_ci"])
        if with_timing:
            columns.append("time_ci")
    return columns


def _write_csv(rows, columns, path):
    def emit(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(
            [row[col] if col in ("method", "k") else _fmt(row.get(col)) for col in columns]
            for row in rows
        )

    if path is None:
        emit(sys.stdout)
    else:
        with open(path, "w", newline="") as fh:
            emit(fh)


def _cmd_gen(args):
    x = volume_io.gen_synthetic(
        args.kind,
        args.dims,
        seed=args.seed,
        rho=args.rho,
        blobs=args.blobs,
        noise=args.noise,
    )
    volume_io.write_volume(args.output, x, dtype=args.dtype)
    return EXIT_OK


def _cmd_decompose(args):
    x = volume_io.read_volume(args.input)
    start = time.perf_counter()
    if args.method == "s3dsvd":
        model = s3dsvd.decompose(x, args.rank)
    elif args.method == "tucker":
        model = baselines.tucker_decompose(x, args.rank)
    else:
        model = baselines.cpd_decompose(x, args.rank, args.seed)
    elapsed = time.perf_counter() - start
    volume_io.write_model(args.output, model)
    line = f"decompose method={args.method} rank={args.rank} elapsed_s={_fmt(elapsed)}"
    if args.method == "cpd":
        line += f" iterations={model.iterations_run} converged={model.converged}"
    print(line, file=sys.stderr)
    return EXIT_OK


def _reconstruct_model(model, k):
    """Expand ``model`` at level ``k``; return ``(method, k, xhat)``, cpd at its rank."""
    if isinstance(model, CpModel):
        if k is not None:
            print("volrank: warning: k is ignored for cpd models", file=sys.stderr)
        return "cpd", model.rank, baselines.cpd_reconstruct(model)
    if k is None:
        raise ValueError("--k is required for s3dsvd and tucker models")
    if isinstance(model, TuckerModel):
        return "tucker", k, baselines.tucker_reconstruct(model, k)
    return "s3dsvd", k, s3dsvd.reconstruct(model, k)


def _cmd_reconstruct(args):
    model = volume_io.read_model(args.input)
    slices = args.slices or ()
    n3 = model.dims[2]
    for index in slices:
        if index >= n3:
            raise ValueError(f"slice index {index} out of range for n3={n3}")
    _, _, xhat = _reconstruct_model(model, args.k)
    volume_io.write_volume(args.output, xhat)
    for index in slices:
        path = f"{args.output}.slice{index}.txt"
        with open(path, "w") as fh:
            for row in xhat[:, :, index]:
                fh.write(" ".join(_fmt(v) for v in row) + "\n")
    return EXIT_OK


def _cmd_metrics(args):
    if (args.recon is None) == (args.model is None):
        raise ValueError("exactly one of --recon or --model is required")
    x = volume_io.read_volume(args.input)
    start = time.perf_counter()
    per_value = None
    if args.recon is not None:
        xhat = volume_io.read_volume(args.recon)
        method = "recon"
        k = args.k if args.k is not None else 0
    else:
        model = volume_io.read_model(args.model)
        method, k, xhat = _reconstruct_model(model, args.k)
        if method == "s3dsvd":
            per_value = metrics.per(model, k)
    elapsed = time.perf_counter() - start
    row = metrics.score(x, xhat, method, k, per_value, elapsed)
    _write_csv([row], _csv_columns(False, not args.no_timing), args.csv)
    return EXIT_OK


def _cmd_sweep(args):
    x = volume_io.read_volume(args.input)
    result = run_sweep(
        x,
        args.method,
        args.ks,
        seeds=tuple(args.seeds),
        threads=_threads_from_env(),
        log=sys.stderr,
    )
    columns = _csv_columns("cpd" in args.method, not args.no_timing)
    _write_csv(result.rows, columns, args.csv)
    return EXIT_OK


def _read_sweep_csv(path):
    """``([(line number, row dict)], header)`` of a CSV, skipping ``#`` lines."""
    try:
        with open(path, "r", newline="") as fh:
            numbered = [(n, ln) for n, ln in enumerate(fh, 1) if not ln.startswith("#")]
    except UnicodeDecodeError as exc:
        raise ParseError(f"CSV is not text: {exc.reason}") from None
    reader = csv.DictReader(line for _, line in numbered)
    rows = [(numbered[reader.line_num - 1][0], row) for row in reader]
    if reader.fieldnames is None:
        raise ParseError("empty CSV: no header row", offset=0)
    return rows, reader.fieldnames


def _cmd_plotdata(args):
    rows, fields = _read_sweep_csv(args.csv)
    column = "per" if args.curve == "per" else "psnr_db"
    for required in ("method", "k", column):
        if required not in fields:
            raise ParseError(f"CSV is missing required column {required!r}")
    points = []
    for line, row in rows:
        if row["method"] != "s3dsvd" or not row[column]:
            continue
        point = []
        for name, kind in (("k", int), (column, float)):
            try:
                point.append(kind(row[name]))
            except (TypeError, ValueError):
                raise ParseError(
                    f"CSV line {line}: malformed {name!r} value {row[name]!r}"
                ) from None
        points.append(tuple(point))
    if not points:
        raise ParseError(f"CSV has no s3dsvd rows with a {column!r} value")
    points.sort()
    lines = [f"{k} {_fmt(value)}" for k, value in points]
    if args.curve == "per":
        crossed = [k for k, value in points if value >= PER_THRESHOLD]
        if crossed:
            lines.append(
                f"# per threshold {_fmt(PER_THRESHOLD)} first reached at k={crossed[0]}"
            )
    text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="volrank",
        description="Low-rank benchmark toolkit for dense volumetric data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic volume")
    p.add_argument("--kind", required=True, choices=("multirank", "blobs", "blobs_noisy"))
    p.add_argument("--dims", required=True, type=_dims_arg, help="n1,n2,n3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=int, default=4, help="multilinear rank for multirank")
    p.add_argument("--blobs", type=int, default=32, help="bump count for blobs kinds")
    p.add_argument("--noise", type=float, default=0.05, help="noise amplitude for blobs_noisy")
    p.add_argument("--dtype", choices=("float32", "float64"), default="float64")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("decompose", help="fit a model to a volume")
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True, choices=("s3dsvd", "tucker", "cpd"))
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--seed", type=int, default=0, help="cpd initialization seed")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reconstruct", help="expand a model into a volume")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=None, help="truncation level (s3dsvd/tucker)")
    p.add_argument("--output", required=True)
    p.add_argument(
        "--slices",
        type=_slices_arg,
        default=None,
        help="mode-3 slice indices to dump as text files next to --output",
    )
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("metrics", help="score a reconstruction against a reference")
    p.add_argument("--input", required=True, help="reference volume")
    p.add_argument("--recon", default=None, help="reconstructed volume")
    p.add_argument("--model", default=None, help="model file to reconstruct from")
    p.add_argument("--k", type=int, default=None, help="truncation level for --model")
    p.add_argument("--csv", default=None, help="output path (default stdout)")
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("sweep", help="benchmark methods across truncation levels")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--method",
        required=True,
        type=_methods_arg,
        help="comma-separated subset of s3dsvd,tucker,cpd",
    )
    p.add_argument("--ks", required=True, type=_ks_arg, help="strictly increasing levels")
    p.add_argument("--seeds", type=_seeds_arg, default=list(DEFAULT_SEEDS))
    p.add_argument("--csv", default=None, help="output path (default stdout)")
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("plotdata", help="extract a per-k curve from a sweep CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--curve", required=True, choices=("per", "psnr"))
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # numpy's overflow and invalid-value warnings would print ahead of
        # the one error line; the explicit finiteness checks report them.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ParseError as exc:
        return _fail(EXIT_PARSE, exc)
    except (NumericError, DegenerateInputError) as exc:
        return _fail(EXIT_NUMERIC, exc)
    except OSError as exc:
        return _fail(EXIT_IO, exc)
    except (ValueError, TypeError) as exc:
        return _fail(EXIT_USAGE, exc)


def _fail(code, exc):
    message = " ".join(str(exc).split())
    print(f"volrank: error: {type(exc).__name__}: {message}", file=sys.stderr)
    return code


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
