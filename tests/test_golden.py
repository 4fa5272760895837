"""Golden corpus: the exact bytes of ~160 in-process CLI calls.

Each call pins one sha256 of its exit code, stdout and stderr, so that a
change which must keep outputs byte-identical is checked by this file, and a
failure names the call that changed. Inputs are the benchmark's seeded cases
(`bench/gen.py`, independent of the program), p/q cells, JSON-number cells,
`gen` runs and invalid inputs that end in treexact's own one-line errors.
argparse usage errors are left out: their wording differs across Python
versions. Where an error echoes a Python exception message (a `Fraction`,
`float` or `json` reason), only the exit code and stdout are pinned.

After a deliberate change of output, rewrite the digests with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from treexact.cli import main
from treexact.core import dump_json

_HERE = Path(__file__).resolve().parent
DIGESTS_PATH = _HERE / "golden.json"


def _load_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", _HERE.parent / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


gen = _load_gen()

MODES = {
    "exact": [],
    "float": ["--mode", "float"],
    "eps": ["--mode", "float", "--eps", "1e-3"],
}

# A tree weighted 1/3 and 1/2: its path weights mix p/q and decimal texts
# (1/3, 1/2 and 5/6 under the exact policy).
THIRD_HALF_TREE = json.dumps(
    {"n": 4, "edges": [{"u": 1, "v": 2, "w": "1/3"}, {"u": 2, "v": 3, "w": "1/2"},
                       {"u": 2, "v": 4, "w": "3/2"}]}
)
PQ_STAR_CSV = "0,1/3,5/6,1/2\n1/3,0,1/2,1/6\n5/6,1/2,0,2/3\n1/2,1/6,2/3,0\n"
PQ_OFF_CSV = "0,1/3,5/6,1/2\n1/3,0,1/2,1/6\n5/6,1/2,0,3/4\n1/2,1/6,3/4,0\n"
# Matrix 32 of `test_scan._matrices(1200, seed=7100)`, jittered under eps =
# 0.01: every check passes within eps, yet Prim's tree misses (2, 5, 1), so the
# report's one witness is `tree_fit`. Each float is written as its repr.
TREE_FIT_CSV = """\
0.0,5.047458299403451,6.020916220600476,1.0100729448175354,3.009671995555638
5.047458299403451,0.0,0.9950779423312239,4.008350698015447,1.9985763301979689
6.020916220600476,0.9950779423312239,0.0,4.9846537188653155,2.999234648508802
1.0100729448175354,4.008350698015447,4.9846537188653155,0.0,1.9802877680913629
3.009671995555638,1.9985763301979689,2.999234648508802,1.9802877680913629,0.0
"""


def _number_json(case) -> str:
    """The case's matrix as JSON numbers (1.5, not "1.500")."""
    n = case.n
    d = [[case.d[i][j] / gen.GRID for j in range(1, n + 1)] for i in range(1, n + 1)]
    return json.dumps({"n": n, "d": d})


def _string_json(case) -> str:
    n = case.n
    d = [[gen.fmt(case.d[i][j]) for j in range(1, n + 1)] for i in range(1, n + 1)]
    return json.dumps({"n": n, "d": d})


def _cases():
    """(id, argv, stdin, pin_stderr) of every call in the corpus."""
    out = []

    def add(name, argv, stdin=None, pin_stderr=True):
        out.append((name, argv, stdin, pin_stderr))

    for kind, perturb, sizes in (("real", False, (5, 7, 11)), ("pert", True, (6, 9, 12))):
        for n in sizes:
            case = gen.make_case(1, n, 0, perturb)
            csv = gen.matrix_csv(case)
            tag = f"{kind}{n}"
            for fmt in ("json", "text"):
                add(f"check-{tag}-exact-{fmt}", ["check", "-f", fmt], csv)
            for fmt in ("json", "dot", "text"):
                add(f"reconstruct-{tag}-exact-{fmt}", ["reconstruct", "-f", fmt], csv)
            for mode in ("float", "eps"):
                add(f"check-{tag}-{mode}-json", ["check", *MODES[mode]], csv)
            add(f"reconstruct-{tag}-eps-json", ["reconstruct", *MODES["eps"]], csv)
            add(f"check-{tag}-eps-text", ["check", "-f", "text", *MODES["eps"]], csv)
            add(f"check-{tag}-numbers", ["check"], _number_json(case))
            add(f"reconstruct-{tag}-strings", ["reconstruct"], _string_json(case))
            if n <= 7:
                for mode in ("exact", "eps"):
                    add(f"oracle-{tag}-{mode}-json", ["oracle", *MODES[mode]], csv)
                add(f"oracle-{tag}-exact-text", ["oracle", "-f", "text"], csv)
            elif n == 9:
                add(f"oracle-{tag}-over-cap", ["oracle"], csv)
            if not perturb:
                tree = gen.tree_json(case)
                for fmt in ("json", "csv", "text"):
                    add(f"weights-{tag}-exact-{fmt}", ["weights", "-f", fmt], tree)
                add(f"weights-{tag}-eps-csv", ["weights", "-f", "csv", *MODES["eps"]], tree)

    # Report kinds the seeded cases above do not reach: a quadruple without a
    # center, the lone triple of three points, Prim's `tree_fit` row, and two
    # n = 24 cases whose moved pair is a tree edge, so every label is in the
    # residual and every quadruple is visited.
    reports = [
        ("no-center", [], "0,2,2,2\n2,0,2,2\n2,2,0,2\n2,2,2,0\n"),
        ("three-points", [], "0,2,2\n2,0,2\n2,2,0\n"),
        ("tree-fit", ["--mode", "float", "--eps", "0.01"], TREE_FIT_CSV),
    ]
    for index in (4, 10):
        reports.append((f"pert24-{index}", [], gen.matrix_csv(gen.make_case(1, 24, index, True))))
    for name, flags, csv in reports:
        for fmt in ("json", "text"):
            add(f"check-{name}-{fmt}", ["check", "-f", fmt, *flags], csv)
    # Two points: Prim's tree is their one edge, so the report is all ok.
    add("check-two-points", ["check"], "0,1\n1,0\n")

    # A fixed-places CSV (three places in every cell, as the benchmark writes
    # it) with cell (2, 5), and with `mirror` also cell (5, 2), rewritten.
    # Underscores are left out: `Fraction` reads them only from Python 3.11.
    fixed = [line.split(",") for line in gen.matrix_csv(gen.make_case(1, 6, 0)).splitlines()]
    for name, text, mirror, pin_stderr in (
        ("extra-place", "11.4140", False, True),
        ("signs", "+11.414", True, True),
        ("leading-zeros", "0011.414", False, True),
        ("negative-zero", "-0.000", True, True),
        ("fullwidth", "１.000", True, True),
        ("digits-1000", "9" * 997 + ".000", True, True),
        ("digits-1001", "9" * 998 + ".000", False, True),
        ("asymmetric", "11.415", False, True),
        ("bad-cell", "11.41x", False, False),
    ):
        rows = [list(row) for row in fixed]
        rows[1][4] = text
        if mirror:
            rows[4][1] = text
        csv = "\n".join(",".join(row) for row in rows) + "\n"
        for command in ("check", "reconstruct"):
            add(f"{command}-fixed-{name}", [command], csv, pin_stderr)

    for fmt in ("json", "csv", "text"):
        add(f"weights-third-half-exact-{fmt}", ["weights", "-f", fmt], THIRD_HALF_TREE)
    # The float reader refuses p/q text with Python's own message.
    add("weights-third-half-float-json", ["weights", "--mode", "float"], THIRD_HALF_TREE,
        pin_stderr=False)

    for name, csv in (("pq-star", PQ_STAR_CSV), ("pq-off", PQ_OFF_CSV)):
        for fmt in ("json", "text"):
            add(f"check-{name}-exact-{fmt}", ["check", "-f", fmt], csv)
        for fmt in ("json", "dot", "text"):
            add(f"reconstruct-{name}-exact-{fmt}", ["reconstruct", "-f", fmt], csv)
        add(f"check-{name}-float-json", ["check", "--mode", "float"], csv, pin_stderr=False)
        add(f"oracle-{name}-exact-json", ["oracle"], csv)

    for fmt in ("json", "csv", "dot", "text"):
        add(f"gen-n6-exact-{fmt}", ["gen", "-n", "6", "--seed", "7", "-f", fmt])
        add(f"gen-n5-pq-{fmt}", ["gen", "-n", "5", "--seed", "3", "--wmin", "1/3",
                                 "--wmax", "5/2", "-f", fmt])
    for mode in ("float", "eps"):
        add(f"gen-n6-{mode}-json", ["gen", "-n", "6", "--seed", "7", *MODES[mode]])
    for n in ("1", "2", "3"):
        add(f"gen-n{n}-exact-json", ["gen", "-n", n])
    add("gen-n30-exact-csv", ["gen", "-n", "30", "--seed", "11", "-f", "csv"])

    # Invalid inputs and flags, each ending in one `error:` line and exit 2.
    add("check-asymmetric", ["check"], "0,1\n2,0\n")
    add("check-nonzero-diagonal", ["check"], "1,1,1\n1,0,1\n1,1,0\n")
    add("check-negative", ["check"], "0,-1,1\n-1,0,1\n1,1,0\n")
    add("check-ragged", ["check"], "0,1,1\n1,0\n1,1,0\n")
    add("check-empty", ["check"], "")
    add("check-bad-cell", ["check"], "0,x,1\nx,0,1\n1,1,0\n", pin_stderr=False)
    add("check-bad-json", ["check"], '{"n": 3, "d": [', pin_stderr=False)
    add("check-json-n-mismatch", ["check"], '{"n": 4, "d": [[0,1,1],[1,0,1],[1,1,0]]}')
    add("check-float-nan", ["check", "--mode", "float"], "0,nan,1\nnan,0,1\n1,1,0\n")
    add("check-float-eps-exact", ["check", "--eps", "1e-3"], PQ_STAR_CSV)
    add("check-float-eps-negative", ["check", "--mode", "float", "--eps", "-1"], PQ_STAR_CSV)
    add("check-format-dot", ["check", "-f", "dot"], PQ_STAR_CSV)
    add("check-format-csv-bad-input", ["check", "-f", "csv"], "not a matrix")
    add("reconstruct-format-csv", ["reconstruct", "-f", "csv"], PQ_STAR_CSV)
    add("oracle-format-dot", ["oracle", "-f", "dot"], PQ_STAR_CSV)
    add("oracle-cap-low", ["oracle", "--cap", "3"], PQ_STAR_CSV)
    add("weights-format-dot", ["weights", "-f", "dot"], THIRD_HALF_TREE)
    add("weights-not-a-tree", ["weights"], json.dumps(
        {"n": 3, "edges": [{"u": 1, "v": 2, "w": "1"}, {"u": 1, "v": 2, "w": "2"}]}))
    add("weights-cycle-short", ["weights"], json.dumps(
        {"n": 4, "edges": [{"u": 1, "v": 2, "w": "1"}, {"u": 2, "v": 3, "w": "1"},
                           {"u": 1, "v": 3, "w": "1"}]}))
    add("weights-unknown-vertex", ["weights"], json.dumps(
        {"n": 2, "edges": [{"u": 1, "v": 3, "w": "1"}]}))
    add("weights-zero-weight", ["weights"], json.dumps(
        {"n": 2, "edges": [{"u": 1, "v": 2, "w": "0"}]}))
    add("weights-bad-weight", ["weights"], json.dumps(
        {"n": 2, "edges": [{"u": 1, "v": 2, "w": "abc"}]}), pin_stderr=False)
    add("gen-n0", ["gen", "-n", "0"])
    add("gen-empty-range", ["gen", "-n", "3", "--wmin", "2", "--wmax", "1"])
    add("gen-no-grid-point", ["gen", "-n", "3", "--wmin", "0.0011", "--wmax", "0.0019"])
    add("gen-wmin-zero", ["gen", "-n", "3", "--wmin", "0"])
    add("gen-bad-bound", ["gen", "-n", "3", "--wmax", "ten"], pin_stderr=False)
    add("gen-wmax-too-many-digits", ["gen", "-n", "3", "--wmax", "1e1000"])
    return out


CASES = _cases()


def run(argv, stdin):
    """(exit code, stdout, stderr) of one in-process `main` call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def digest(code, stdout, stderr, pin_stderr) -> str:
    pinned = [code, stdout, stderr if pin_stderr else None]
    return hashlib.sha256(json.dumps(pinned).encode("utf-8")).hexdigest()


@functools.cache
def pinned_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def test_case_ids_are_unique_and_all_pinned():
    names = [name for name, *_ in CASES]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(pinned_digests())


@pytest.mark.parametrize("name, argv, stdin, pin_stderr", CASES, ids=[case[0] for case in CASES])
def test_output_is_byte_identical(name, argv, stdin, pin_stderr):
    code, stdout, stderr = run(argv, stdin)
    if code == 2:
        assert stdout == "" and stderr.startswith("error: ") and stderr.count("\n") == 1
    assert digest(code, stdout, stderr, pin_stderr) == pinned_digests()[name]


def test_the_check_reports_hold_every_witness_kind():
    """The `check` calls pin each row layout the report writers have: the
    four-point triple and quadruple, the center quadruple, the median
    quadruple and triple, the lone median triple and `tree_fit`."""
    kinds = set()
    for name, argv, stdin, _ in CASES:
        if argv[:3] == ["check", "-f", "json"]:
            code, stdout, _ = run(argv, stdin)
            for w in json.loads(stdout)["witnesses"] if code == 1 else ():
                kinds.add((w["code"], w["quadruple"] is None, w["triple"] is None))
    assert kinds == {
        ("triangle_violation", True, False), ("quadruple_max_once", False, True),
        ("no_center_vertex", False, True), ("no_median_vertex", False, False),
        ("no_median_vertex", True, False), ("no_tree_within_eps", True, False),
    }


def test_every_written_payload_matches_the_indenting_encoder(monkeypatch):
    """Each payload the golden calls pass to `dump_json` (tree, matrix, `gen`,
    witness and census JSON) is written as `json.dumps(payload, indent=2,
    sort_keys=True)` writes it."""
    written = []

    def recording(payload):
        text = dump_json(payload)
        assert text == json.dumps(payload, indent=2, sort_keys=True)
        written.append(frozenset(payload))
        return text

    for name in ("cli", "oracle", "reconstruct"):
        monkeypatch.setattr(importlib.import_module(f"treexact.{name}"), "dump_json", recording)
    for name, argv, stdin, pin_stderr in CASES:
        assert digest(*run(argv, stdin), pin_stderr) == pinned_digests()[name]
    assert set(written) == {
        frozenset({"n", "edges"}), frozenset({"n", "d"}), frozenset({"tree", "matrix"}),
        frozenset({"realized", "stage", "indices", "message"}),
        frozenset({"n", "topologies", "count", "realizations"}),
    }


if __name__ == "__main__":
    digests = {name: digest(*run(argv, stdin), pin) for name, argv, stdin, pin in CASES}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
