"""The package's public surface is the union of its modules' ``__all__``."""

import importlib

import volrank

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
