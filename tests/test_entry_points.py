"""The entry points agree: `parse_matrix` reads a text as `treexact check`
reads it, and a submodule imported from the package loads only itself."""

import json

import pytest

from treexact import TreexactError, conditions, parse_matrix
from treexact.cli import _UsageError, _resolve_policy, build_parser

from helpers import run_fresh
from test_golden import CASES, run

JSON_STAR = '{"n": 3, "d": [[0, 3, 1], [3, 0, 2], [1, 2, 0]]}'


def _matrix_inputs():
    """(name, stdin, policy flags) of every golden call that reads a matrix,
    each text and policy once, named after its first call."""
    seen = {}
    for name, argv, stdin, _ in CASES:
        if argv[0] not in ("check", "reconstruct", "oracle") or stdin is None:
            continue
        args = build_parser().parse_args(argv)
        try:
            _resolve_policy(args)
        except _UsageError:
            continue
        flags = ("--mode", args.mode) + (("--eps", args.eps) if args.eps else ())
        seen.setdefault((stdin, flags), name)
    return [(name, stdin, flags) for (stdin, flags), name in seen.items()]


EXTRA = {
    "json-blanks": " \t\n" + JSON_STAR,
    "json-newlines": "\n\n\t  " + JSON_STAR + "\n",
    "json-other-space": "\r\n \x1c\u3000" + JSON_STAR,
    "json-wrapped": '{"tree": {}, "matrix": ' + JSON_STAR + "}",
    "brace-csv": "{0,1,1\n1,0,1\n1,1,0\n",
    "brace-text": "  {not json",
    "csv": "0,3,1\n3,0,2\n1,2,0\n",
}
INPUTS = _matrix_inputs() + [
    (f"{name}-{mode}", text, ("--mode", mode)) for name, text in EXTRA.items() for mode in ("exact", "float")
]


def test_the_inputs_hold_both_formats():
    texts = [text.lstrip() for _, text, _ in INPUTS]
    assert sum(text.startswith("{") for text in texts) >= 20
    assert sum(not text.startswith("{") for text in texts) >= 40


@pytest.mark.parametrize("stdin, flags", [case[1:] for case in INPUTS], ids=[case[0] for case in INPUTS])
def test_parse_matrix_reads_what_check_reads(monkeypatch, stdin, flags):
    """The matrix `check` decides is `parse_matrix`'s of the same text under
    the same policy; when the library refuses the text, `check` prints its
    message and exits 2."""
    decided = []
    real = conditions._decide

    def recording(m):
        decided.append(m)
        return real(m)

    monkeypatch.setattr(conditions, "_decide", recording)
    code, _, stderr = run(["check", *flags], stdin)
    policy = _resolve_policy(build_parser().parse_args(["check", *flags]))
    try:
        want = parse_matrix(stdin, policy=policy)
    except TreexactError as exc:
        assert (code, stderr, decided) == (2, f"error: {exc}\n", [])
    else:
        assert decided == [want]


def test_policy_is_keyword_only():
    with pytest.raises(TypeError):
        parse_matrix(JSON_STAR, "json")


LOADED = (
    "import json, sys\n{}\n"
    "print(json.dumps(sorted(name for name in sys.modules if name.startswith('treexact.'))))"
)
BASE = ["treexact.core", "treexact.errors", "treexact.numeric", "treexact.reconstruct"]


@pytest.mark.parametrize(
    "statement, extra",
    [
        ("from treexact import cli", ["treexact.cli"]),
        ("from treexact import oracle", ["treexact.oracle"]),
        ("from treexact import conditions", ["treexact.conditions"]),
        ("import treexact; treexact.cli", ["treexact.cli"]),
    ],
    ids=["cli", "oracle", "conditions", "attribute"],
)
def test_a_submodule_from_the_package_loads_only_itself(statement, extra):
    """`from treexact import cli` loads what `import treexact.cli` loads:
    neither `conditions` nor `oracle`."""
    assert json.loads(run_fresh(LOADED.format(statement))) == sorted(BASE + extra)
