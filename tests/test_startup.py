"""Start-up: a CLI process imports only the modules its subcommand runs, and
`oracle --help` names a default cap that is the oracle's."""

import contextlib
import io
import json

import pytest

from treexact import oracle
from treexact.cli import build_parser, main

from helpers import run_fresh
from test_cli import PATH_TREE_JSON, STAR_CSV

LAZY = ("treexact.conditions", "treexact.oracle")

# Imports the CLI, then runs `main(argv)` if there is an argv; prints the
# exit code (None when nothing ran) and which of LAZY are loaded.
CHILD = f"""
import contextlib, io, json, sys
import treexact.cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = treexact.cli.main(sys.argv[1:])
print(json.dumps([code, [name for name in {LAZY!r} if name in sys.modules]]))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ((), []),
        (("check", "-i", "m.csv"), ["treexact.conditions"]),
        (("reconstruct", "-i", "m.csv"), []),
        (("weights", "-i", "t.json"), []),
        (("oracle", "-i", "m.csv"), ["treexact.oracle"]),
        (("gen", "-n", "4"), ["treexact.oracle"]),
    ],
    ids=["import", "check", "reconstruct", "weights", "oracle", "gen"],
)
def test_each_subcommand_loads_only_what_it_runs(tmp_path, argv, loaded):
    (tmp_path / "m.csv").write_text(STAR_CSV)
    (tmp_path / "t.json").write_text(PATH_TREE_JSON)
    code, got = json.loads(run_fresh(CHILD, *argv, cwd=tmp_path))
    assert (code, got) == (0 if argv else None, loaded)


def _help(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    return out.getvalue()


def test_oracle_help_states_the_default_cap():
    line = "  --cap CAP             enumeration size limit (default 8)"
    assert line in _help(["oracle", "--help"]).splitlines()


def test_the_cli_default_cap_is_the_oracles():
    """The CLI states its own default cap; it must be the library's."""
    assert build_parser().parse_args(["oracle"]).cap == oracle.DEFAULT_ENUMERATION_CAP == 8
