"""The package's public surface is the union of its modules' ``__all__``,
no module imports a name it does not use, scipy is imported only where
numpy has no substitute, every volume the package returns is in the
layout that metrics and writers use without a copy, and the three models
share one contract: ``dims, rank, factors`` first, and an orthogonal
model is those plus a dense core.  The benchmark in ``perfbench/`` can
still trace the package and read its sweep rows."""

import ast
import dataclasses
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import volrank
from volrank import baselines, cli, s3dsvd, tensor_core as tc, volume_io

MODULES = ("baselines", "errors", "metrics", "s3dsvd", "tensor_core", "volume_io")


def _modules():
    return [importlib.import_module(f"volrank.{name}") for name in MODULES]


def test_all_is_the_sorted_union_of_module_all():
    names = set()
    for module in _modules():
        names.update(module.__all__)
    assert volrank.__all__ == sorted(names)


def test_each_name_is_its_module_object():
    for module in _modules():
        for name in module.__all__:
            assert getattr(volrank, name) is getattr(module, name)


def test_every_module_level_import_is_used():
    # A stdlib stand-in for a linter's unused-import rule.
    for path in sorted(Path(volrank.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - used) == [], path.name


def _imports(node, scope=None):
    """Yield ``(innermost enclosing function, module)`` for each absolute import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield scope, alias.name
        elif isinstance(child, ast.ImportFrom) and not child.level:
            yield scope, child.module
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _imports(child, inner)


def test_scipy_is_imported_only_by_the_svd_fallback():
    found = []
    for path in sorted(Path(volrank.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            (path.name, scope, module)
            for scope, module in _imports(tree)
            if module.split(".")[0] == "scipy"
        ]
    assert found == [("tensor_core.py", "svd", "scipy.linalg")]


def _returned_volumes(dims, tmp_path):
    """Yield ``(call, volume)`` for each function that returns a volume."""
    rng = np.random.default_rng(0)
    x = volume_io.gen_synthetic("blobs", dims, seed=0)
    k = 4
    model = s3dsvd.decompose(x, k)
    yield "s3dsvd.reconstruct", s3dsvd.reconstruct(model, k)
    yield "diagonal_expansion", s3dsvd.diagonal_expansion(model, k)
    tucker = baselines.tucker_decompose(x, k, max_iters=2)
    yield "tucker_reconstruct", baselines.tucker_reconstruct(tucker)
    cpd = baselines.cpd_decompose(x, k, seed=0, max_iters=2)
    yield "cpd_reconstruct", baselines.cpd_reconstruct(cpd)
    for mode in (1, 2, 3):
        mat = rng.standard_normal((3, dims[mode - 1]))
        yield f"mode_product mode {mode}", tc.mode_product(x, mat, mode)
        yield f"fold mode {mode}", tc.fold(tc.unfold(x, mode), mode, dims)
    yield "outer3", tc.outer3(*(rng.standard_normal(n) for n in dims))
    for kind in ("multirank", "blobs", "blobs_noisy"):
        yield f"gen_synthetic {kind}", volume_io.gen_synthetic(kind, dims, seed=1)
    for dtype in ("float64", "float32"):
        data = volume_io.volume_to_bytes(x, dtype)
        path = tmp_path / f"{dtype}.s3dv"
        path.write_bytes(data)
        yield f"volume_from_bytes {dtype}", volume_io.volume_from_bytes(data)
        yield f"read_volume {dtype}", volume_io.read_volume(path)


@pytest.mark.parametrize("dims", [(16, 16, 16), (28, 24, 20)], ids=["cube", "falling"])
def test_every_returned_volume_is_c_ordered_float64(dims, tmp_path):
    # as_tensor3 returns such a volume itself, so no metric or writer copies it.
    wrong = [
        (call, v.dtype.str, v.strides)
        for call, v in _returned_volumes(dims, tmp_path)
        if not (v.dtype == np.float64 and v.flags.c_contiguous and tc.as_tensor3(v) is v)
    ]
    assert wrong == []


def _field_names(kind):
    return [field.name for field in dataclasses.fields(kind)]


def test_models_share_one_contract():
    assert _field_names(s3dsvd.S3dModel) == ["dims", "rank", "factors", "core"]
    assert _field_names(baselines.TuckerModel) == [
        *_field_names(s3dsvd.S3dModel),
        "fit_history",
    ]
    assert _field_names(baselines.CpModel)[:3] == ["dims", "rank", "factors"]


def test_qsigma_is_the_core_diagonal_bit_for_bit():
    x = volume_io.gen_synthetic("blobs_noisy", (6, 7, 8), seed=2)
    model = s3dsvd.decompose(x, 5)
    core = model.core.copy()
    core[2] = -core[2]
    flipped = dataclasses.replace(model, core=core)
    level = volume_io.model_from_bytes(volume_io.model_to_bytes(model), level=3)
    for m in (model, flipped, level):
        diagonal = np.array([m.core[i, i, i] for i in range(m.rank)])
        assert m.qsigma.tobytes() == diagonal.tobytes()
    assert flipped.qsigma[2] == -model.qsigma[2] != 0.0
    assert level.qsigma.tobytes() == model.qsigma[:3].tobytes()


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _row_keys_read(path, function):
    """The ``row["..."]`` keys that ``function`` (``name`` or ``Class.name``) reads."""
    node = ast.parse(path.read_text(), filename=str(path))
    for name in function.split("."):
        node = next(
            child for child in node.body
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == name
        )
    return {
        sub.slice.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Subscript)
        and isinstance(sub.value, ast.Name) and sub.value.id == "row"
        and isinstance(sub.slice, ast.Constant)
    }


def test_the_benchmark_interface_holds(monkeypatch):
    # The benchmark in perfbench/ traces functions by name and reads sweep
    # rows, so renaming either breaks it; this keeps that a test failure.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    reference = importlib.import_module("reference")
    traced = [
        (sys.modules[f"volrank.{module}"], attr)
        for module, attr in (name.split(".") for name in tracing.TRACED)
    ]
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "volrank"]
    before = [(m, dict(vars(m))) for m in modules]
    originals = [getattr(module, attr) for module, attr in traced]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = [getattr(module, attr).__wrapped__ for module, attr in traced]
    finally:
        tracer.uninstall()
    assert all(w is o for w, o in zip(wrapped, originals))
    for module, names in before:
        assert all(getattr(module, key) is value for key, value in names.items())

    x = volume_io.gen_synthetic("blobs_noisy", (8, 9, 10), seed=4)
    rows = cli.run_sweep(x, ["s3dsvd"], [2, 3]).rows
    read = _row_keys_read(PERFBENCH / "reference.py", "check_sweep_row")
    read |= _row_keys_read(PERFBENCH / "workloads.py", "Progressive.round")
    assert {"method", "k", "mse", "per"} <= read
    normx2 = float(np.sum(x * x))
    for row in rows:
        assert read <= set(row)
        reference.check_sweep_row(row, float(np.max(x)), normx2, x.size)
