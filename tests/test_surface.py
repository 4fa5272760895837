"""The package's public surface is declared once: each module's `__all__`."""

import sys

import treexact
from treexact import conditions, core, errors, numeric, oracle

MODULES = (conditions, core, errors, numeric, oracle, sys.modules["treexact.reconstruct"])


def test_package_all_is_the_modules_lists_in_order():
    assert treexact.__all__ == [name for module in MODULES for name in module.__all__]


def test_no_name_is_exported_twice():
    assert len(treexact.__all__) == len(set(treexact.__all__))


def test_every_listed_name_exists_in_its_module_and_the_package():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(treexact, name) is getattr(module, name), (module.__name__, name)


def test_reconstruct_is_the_function_not_the_module():
    assert treexact.reconstruct is sys.modules["treexact.reconstruct"].reconstruct
