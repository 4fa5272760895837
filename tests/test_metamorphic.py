"""Metamorphic relations of `check_all`: two runs of the same code on related
matrices, so they need no second implementation and reach any n.

Relabeling: for a permutation π of the labels, the report of the permuted
matrix holds π applied to the original's witnesses. `best_l` is "the first l
with the most", so a relabeling may move it to another l of the same score:
it is compared by its score, the one the reference loops in
`tests/test_scan.py` give.
"""

import random
from collections import Counter

import pytest

from treexact import EXACT, DissimilarityMatrix, WeightedTree, all_pairs_weights, check_all

from test_scan import _center_hits, _median_checks


def _tree_rows(rng, n):
    """The path weights of a random tree on 1..n (0-based rows) and its edges."""
    edges = [(v, rng.randrange(1, v), rng.choice((1, 2, 3, 5))) for v in range(2, n + 1)]
    m = all_pairs_weights(WeightedTree.from_edges(n, edges))
    return [[m.d(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)], edges


def _moved(rng, n, shape):
    """A tree metric on n labels with one pair moved by 1, two pairs moved
    by 1, or one tree edge's entry multiplied by 3."""
    rows, edges = _tree_rows(rng, n)
    if shape == "edge":
        u, v, w = rng.choice(edges)
        rows[u - 1][v - 1] = rows[v - 1][u - 1] = 3 * w
    for _ in range({"one": 1, "two": 2, "edge": 0}[shape]):
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rows[i][j] + (1 if rows[i][j] == 1 else rng.choice((-1, 1)))
    return DissimilarityMatrix.from_rows(rows, EXACT)


def _relabeled(m, label):
    """m with each label x renamed label[x]."""
    return DissimilarityMatrix.from_pairs(m.n, {(label[i], label[j]): d for i, j, d in m.pairs()}, EXACT)


def _report(m):
    """`check_all(m)`'s fragment flags, and its witnesses as (condition,
    code, quadruple, triple, best_l's score)."""
    grid, eq, _ = m.comparison_view()
    report = check_all(m)
    witnesses = []
    for w in report.witnesses:
        if w.best_l is None:
            score = None
        elif w.triple is None:
            score = _center_hits(grid, eq, w.quadruple, w.best_l)
        else:
            score = sum(_median_checks(grid, eq, w.triple, w.best_l)[:5])
        witnesses.append((w.condition, w.code, w.quadruple, w.triple, score))
    flags = [(f.ok, f.caveat) for f in (report.four_point, report.condition_i, report.condition_ii)]
    return flags, witnesses


def _renamed(witnesses, label):
    """The witnesses as a multiset, each label x renamed label[x]."""
    rename = lambda labels: labels and tuple(sorted(label[x] for x in labels))  # noqa: E731
    return Counter((c, code, rename(quad), rename(triple), s) for c, code, quad, triple, s in witnesses)


@pytest.mark.parametrize("n", [24, 48])
@pytest.mark.parametrize("shape", ["one", "two", "edge"])
def test_relabeling_maps_the_witnesses(n, shape):
    rng = random.Random(f"relabel-{n}-{shape}")
    m = _moved(rng, n, shape)
    flags, witnesses = _report(m)
    assert witnesses, "a moved tree metric has witnesses"
    identity = range(n + 1)
    for _ in range(3):
        label = [0, *rng.sample(range(1, n + 1), n)]
        got_flags, got = _report(_relabeled(m, label))
        assert (got_flags, _renamed(got, identity)) == (flags, _renamed(witnesses, label))
