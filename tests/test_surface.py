"""The package's public surface is declared once: each module's `__all__`.
It is the same whichever module is imported first, although `conditions`
and `oracle` load only on first use."""

import json
import sys

import pytest

import treexact
from treexact import conditions, core, errors, numeric, oracle

from helpers import run_fresh
from test_api import PUBLIC, REMOVED
from test_cli import STAR_CSV

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


# The surface under lazy loading, each in a fresh interpreter, since the
# order of the first imports is what is under test. `conditions` and
# `oracle` load on the first name the package does not hold yet.

RECONSTRUCT_IS_THE_FUNCTION = (
    "import sys\nimport treexact\n"
    "print(treexact.reconstruct is sys.modules['treexact.reconstruct'].reconstruct)"
)


@pytest.mark.parametrize(
    "first",
    [
        "",
        "import treexact.reconstruct",
        "import treexact.conditions",
        "import treexact.oracle",
        "from treexact import reconstruct; assert callable(reconstruct)",
        "from treexact import *",
        "import treexact; treexact.check_all",
        "import treexact.cli, contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert treexact.cli.main(['reconstruct', '-i', 'm.csv']) == 0",
    ],
    ids=["package", "reconstruct-module", "conditions", "oracle", "from-import", "star-import",
         "lazy-name", "cli-reconstruct"],
)
def test_reconstruct_is_the_function_in_every_import_order(tmp_path, first):
    (tmp_path / "m.csv").write_text(STAR_CSV)
    assert run_fresh(first + "\n" + RECONSTRUCT_IS_THE_FUNCTION, cwd=tmp_path) == "True\n"


def test_star_import_binds_every_public_name():
    code = "import json\nns = {}\nexec('from treexact import *', ns)\nprint(json.dumps(sorted(set(ns) - {'__builtins__'})))"
    names = json.loads(run_fresh(code))
    assert names == PUBLIC and len(names) == 34


def test_dir_lists_every_public_name():
    code = "import treexact\nnames = dir(treexact)\nprint(set(treexact.__all__) <= set(names))"
    assert run_fresh(code) == "True\n"
    assert set(treexact.__all__) <= set(dir(treexact))


def test_removed_names_stay_absent_before_and_after_the_lazy_load():
    code = (
        "import json, sys\nimport treexact\n"
        "print(json.dumps([[name for name in sys.argv[1:] if hasattr(treexact, name)] for _ in range(2)]))"
    )
    assert json.loads(run_fresh(code, *REMOVED)) == [[], []]
