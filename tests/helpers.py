"""Shared fixture matrices and small utilities for the test suite."""

import os
import subprocess
import sys
from fractions import Fraction

import treexact
from treexact import DissimilarityMatrix, EXACT
from treexact.conditions import _report, _scan_rows, _write_text
from treexact.reconstruct import _prim


def star_matrix(policy=EXACT):
    """Metric of the star with center 3 and arm weights 1, 2, 4 to 1, 2, 4."""
    return DissimilarityMatrix.from_pairs(
        4,
        {(1, 2): 3, (1, 3): 1, (1, 4): 5, (2, 3): 2, (2, 4): 6, (3, 4): 4},
        policy,
    )


def all_two_matrix(n=4, policy=EXACT):
    """Every off-diagonal dissimilarity equals 2."""
    return DissimilarityMatrix.from_pairs(
        n,
        {(i, j): 2 for i in range(1, n + 1) for j in range(i + 1, n + 1)},
        policy,
    )


def caterpillar_outer_matrix(policy=EXACT):
    """Two unit cherries joined by a unit middle edge, restricted to the four
    outer labels: d(1,2) = d(3,4) = 2, the other four pairs are 3."""
    return DissimilarityMatrix.from_pairs(
        4,
        {(1, 2): 2, (3, 4): 2, (1, 3): 3, (1, 4): 3, (2, 3): 3, (2, 4): 3},
        policy,
    )


def unit_path_matrix(policy=EXACT):
    """Metric of the unit-weight path 1-2-3-4."""
    return DissimilarityMatrix.from_pairs(
        4,
        {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 3): 2, (2, 4): 2, (1, 4): 3},
        policy,
    )


def path3_matrix(policy=EXACT):
    """Metric of the path 1-3-2 with weights 1 and 2."""
    return DissimilarityMatrix.from_pairs(
        3, {(1, 3): 1, (2, 3): 2, (1, 2): 3}, policy
    )


def matrices_entrywise_equal(a, b):
    policy = a.policy
    if a.n != b.n:
        return False
    return all(
        policy.eq(a.rows[i][j], b.rows[i][j])
        for i in range(1, a.n + 1)
        for j in range(i + 1, a.n + 1)
    )


def perturb_one_pair(m, i, j, delta=Fraction(1, 2)):
    """Copy of m with d(i, j) bumped by delta (kept symmetric)."""
    pairs = {(u, v): w for u, v, w in m.pairs()}
    key = (min(i, j), max(i, j))
    pairs[key] = pairs[key] + delta
    return DissimilarityMatrix.from_pairs(m.n, pairs, m.policy)


def scan_report(m):
    """The `CheckReport` of one scan, without `check_all`'s all-ok shortcut."""
    return _report(*_scan_rows(m, _prim(m)))


def report_rows(report):
    """A `CheckReport` as the CLI's writers take `_decide`'s rows, one group
    per witness."""
    groups = []
    for w in report.witnesses:
        quad, triple = tuple(w.quadruple or ()), tuple(w.triple or ())
        best = () if w.best_l is None else (w.best_l,)
        kind = (w.condition, w.code, len(quad), len(triple), bool(best))
        groups.append((kind, (best + quad + triple,)))
    fragments = (report.four_point, report.condition_i, report.condition_ii)
    return report.realizable, [(f.ok, f.caveat, len(f.witnesses)) for f in fragments], groups


def report_text(report):
    """The text report of a `CheckReport`, as `treexact check -f text`
    writes it."""
    return _write_text(*report_rows(report))


def run_fresh(code, *argv, cwd=None):
    """Run `code` in a new interpreter that imports treexact from the same
    place as this suite, with `argv` as its arguments; return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(treexact.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, cwd=cwd, timeout=60
    )
    assert run.returncode == 0 and run.stderr == "", run.stderr
    return run.stdout
