"""Metamorphic relations of `check_all` and `reconstruct`: two runs of the
same code on related matrices, so they need no second implementation and
reach any n.

Relabeling: for a permutation π of the labels, the report of the permuted
matrix holds π applied to the original's witnesses. `best_l` is "the first l
with the most", so a relabeling may move it to another l of the same score:
under the exact policy it is compared by its score, the one the reference
loops in `tests/test_scan.py` give. Under the float policy it is not
compared (see `test_float_relabeling_keeps_the_median_scores`), and neither
is the triple of a `tree_fit` witness, which is Prim's first mismatch in
Prim order from label 1.

Pendant leaf: hanging a new label n + 1 from a label a by an edge of weight
w > 0, so that d(n + 1, y) = w + d(a, y), keeps a realizable matrix
realizable, and `reconstruct`'s tree gains exactly the edge (a, n + 1, w).

Steiner point: a new label s = n + 1 inside a tree edge (u, v, w), at
distance 0 < a < w from u, keeps a realizable exact matrix realizable, and
`reconstruct`'s tree has (u, s, a) and (s, v, w - a) in place of the edge.
Hung from that interior point by h > 0 instead, s makes a tree metric whose
tree has a vertex that is no label: four-point holds, yet the matrix is not
realizable, and every witness holds s.

Float scaling: multiplying a float matrix whose entries are all at least 1
by 2^k rounds nothing, in its entries, its sums and the tolerance eps *
max(1, |x|, |y|), so every comparison comes out as before: `_decide`'s rows
are the same, `best_l` included, and `reconstruct`'s weights scale by 2^k.

`assert_relabeling`, `assert_pendant_leaf` and `assert_steiner_point` are
also run at larger n by a CI step on the benchmark generator's cases.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from treexact import (
    EXACT, DissimilarityMatrix, FloatPolicy, UnrealizableWitness, WeightedTree,
    all_pairs_weights, check_all, reconstruct, trees_equal,
)
from treexact.conditions import _decide

from test_scan import _center_hits, _median_checks

def _tree_rows(rng, n, policy=EXACT):
    """The path weights of a random tree on 1..n (0-based rows) and its
    edges: weights in {1, 2, 3, 5} under the exact policy, in [1, 10] under
    the float one."""
    exact = policy is EXACT
    weight = (lambda: rng.choice((1, 2, 3, 5))) if exact else (lambda: rng.uniform(1, 10))
    edges = [(v, rng.randrange(1, v), weight()) for v in range(2, n + 1)]
    m = all_pairs_weights(WeightedTree.from_edges(n, edges, policy))
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


def _float_moved(rng, n, eps):
    """A float tree metric on n labels, weights in [1, 10], with three pairs
    each moved by up to 1.5 eps of its value, up or down."""
    policy = FloatPolicy(eps)
    rows, _ = _tree_rows(rng, n, policy)
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rows[i][j] * (1 + rng.uniform(-1.5, 1.5) * eps)
    return DissimilarityMatrix.from_rows(rows, policy)


def _relabeled(m, label):
    """m with each label x renamed label[x], under m's policy."""
    return DissimilarityMatrix.from_pairs(
        m.n, {(label[i], label[j]): d for i, j, d in m.pairs()}, m.policy
    )


def _report(m, scored):
    """The verdicts of `check_all(m)` and `reconstruct(m)`, the report's
    fragment flags, and its witnesses as (condition, code, quadruple,
    triple, best_l's score); the score is None unless `scored`, and a
    `tree_fit` witness keeps only its condition and code."""
    grid, eq, _ = m.comparison_view()
    report = check_all(m)
    witnesses = []
    for w in report.witnesses:
        quad, triple, score = w.quadruple, w.triple, None
        if w.condition == "tree_fit":
            triple = None
        elif scored and w.best_l is not None:
            if triple is None:
                score = _center_hits(grid, eq, quad, w.best_l)
            else:
                score = sum(_median_checks(grid, eq, triple, w.best_l)[:5])
        witnesses.append((w.condition, w.code, quad, triple, score))
    flags = [(f.ok, f.caveat) for f in (report.four_point, report.condition_i, report.condition_ii)]
    verdicts = report.realizable, isinstance(reconstruct(m), WeightedTree)
    return verdicts, flags, witnesses


def _renamed(witnesses, label):
    """The witnesses as a multiset, each label x renamed label[x]."""
    rename = lambda labels: labels and tuple(sorted(label[x] for x in labels))  # noqa: E731
    return Counter((c, code, rename(quad), rename(triple), s) for c, code, quad, triple, s in witnesses)


def assert_relabeling(m, rng, scored, permutations=3):
    """The relabeling relation on m for `permutations` random permutations
    drawn from rng; returns the number of witnesses of m."""
    verdicts, flags, witnesses = _report(m, scored)
    identity = range(m.n + 1)
    for _ in range(permutations):
        label = [0, *rng.sample(range(1, m.n + 1), m.n)]
        got_verdicts, got_flags, got = _report(_relabeled(m, label), scored)
        assert (got_verdicts, got_flags, _renamed(got, identity)) == (
            verdicts, flags, _renamed(witnesses, label)
        ), f"permutation {label[1:]}"
    return len(witnesses)


def _pendant(m, a, w):
    """m with a label n + 1 hung from label a by weight w."""
    pairs = {(i, j): d for i, j, d in m.pairs()}
    pairs.update({(y, m.n + 1): w + m.d(a, y) for y in range(1, m.n + 1) if y != a})
    pairs[a, m.n + 1] = w
    return DissimilarityMatrix.from_pairs(m.n + 1, pairs, m.policy)


def assert_pendant_leaf(m, a, w):
    """The pendant-leaf relation: m is realizable, and so is m with label
    n + 1 hung from a by w, whose tree is m's plus the edge (a, n + 1, w)."""
    tree = reconstruct(m)
    assert isinstance(tree, WeightedTree), tree
    grown = _pendant(m, a, w)
    assert check_all(grown).realizable
    want = WeightedTree.from_edges(m.n + 1, [*tree.edges, (a, m.n + 1, w)], m.policy)
    got = reconstruct(grown)
    assert isinstance(got, WeightedTree) and trees_equal(got, want), got


@pytest.mark.parametrize("n", [24, 48])
@pytest.mark.parametrize("shape", ["one", "two", "edge"])
def test_relabeling_maps_the_witnesses(n, shape):
    rng = random.Random(f"relabel-{n}-{shape}")
    witnesses = assert_relabeling(_moved(rng, n, shape), rng, scored=True)
    assert witnesses, "a moved tree metric has witnesses"


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("n", [12, 24])
def test_float_relabeling_maps_the_witnesses(n, eps, seed):
    rng = random.Random(f"float-relabel-{n}-{eps}-{seed}")
    assert_relabeling(_float_moved(rng, n, eps), rng, scored=False)


@pytest.mark.xfail(
    strict=True,
    reason="conditions._median_best scores eq(x1, x2) and eq(x2, x3) but not eq(x1, x3), "
    "so a median witness's best_l score depends on label order (CHANGES.md FOUND)",
)
def test_float_relabeling_keeps_the_median_scores():
    # In two of this case's three permutations, 19 median witnesses have a
    # best_l that scores 4 where the same witness of the original scores 3.
    rng = random.Random("float-relabel-12-1e-06-1")
    assert_relabeling(_float_moved(rng, 12, 1e-6), rng, scored=True)


@pytest.mark.parametrize(
    "policy", [EXACT, FloatPolicy(1e-9), FloatPolicy(1e-6)],
    ids=["exact", "float-1e-9", "float-1e-6"],
)
@pytest.mark.parametrize("n", [24, 48])
def test_pendant_leaf_keeps_the_tree(n, policy):
    rng = random.Random(f"pendant-{n}-{policy}")
    for _ in range(10):
        m = DissimilarityMatrix.from_rows(_tree_rows(rng, n, policy)[0], policy)
        a = rng.randint(1, n)
        if policy is EXACT:
            w = Fraction(rng.randint(1, 30), rng.choice((1, 2, 3)))
        else:
            w = rng.uniform(1, 10)
        assert_pendant_leaf(m, a, w)


def _steiner(m, u, v, a, h):
    """m with a label s = n + 1 at distance a from u inside the tree edge
    (u, v), hung from that point by h: d(s, y) is h plus the shorter of the
    two ways round the edge."""
    w = m.d(u, v)
    pairs = {(i, j): d for i, j, d in m.pairs()}
    pairs.update({(y, m.n + 1): h + min(a + m.d(u, y), w - a + m.d(v, y)) for y in range(1, m.n + 1)})
    return DissimilarityMatrix.from_pairs(m.n + 1, pairs, m.policy)


def assert_steiner_point(m, u, v, a, h):
    """The Steiner-point relation on a realizable exact m, its tree edge (u,
    v, w), 0 < a < w and h > 0; returns the number of witnesses of the label
    hung by h."""
    tree = reconstruct(m)
    assert isinstance(tree, WeightedTree), tree
    s, w = m.n + 1, m.d(u, v)
    inside = _steiner(m, u, v, a, 0)
    assert check_all(inside).realizable
    split = [e for e in tree.edges if {e.u, e.v} != {u, v}] + [(u, s, a), (s, v, w - a)]
    got = reconstruct(inside)
    assert isinstance(got, WeightedTree) and trees_equal(got, WeightedTree.from_edges(s, split)), got
    off = _steiner(m, u, v, a, h)
    report = check_all(off)
    assert report.four_point.ok and not report.realizable and report.tree_fit is None
    assert isinstance(reconstruct(off), UnrealizableWitness)
    assert report.witnesses
    for witness in report.witnesses:
        assert s in (witness.quadruple or ()) + (witness.triple or ()), witness
    return len(report.witnesses)


@pytest.mark.parametrize("n", [24, 48])
def test_steiner_point_splits_an_edge(n):
    rng = random.Random(f"steiner-{n}")
    for _ in range(10):
        rows, edges = _tree_rows(rng, n)
        u, v, w = rng.choice(edges)
        a = w * Fraction(rng.randint(1, 9), 10)
        assert_steiner_point(DissimilarityMatrix.from_rows(rows), u, v, a, Fraction(rng.randint(1, 30), 3))


@pytest.mark.parametrize("k", [1, 5, 20])
@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("n", [12, 24])
def test_float_scaling_keeps_the_rows(n, eps, k):
    rng = random.Random(f"float-scale-{n}-{eps}-{k}")
    for _ in range(4):
        m = _float_moved(rng, n, eps)
        assert min(d for _, _, d in m.pairs()) >= 1
        scaled = DissimilarityMatrix.from_pairs(n, {(i, j): d * 2**k for i, j, d in m.pairs()}, m.policy)
        assert _decide(scaled) == _decide(m)
        tree, got = reconstruct(m), reconstruct(scaled)
        if isinstance(tree, WeightedTree):
            assert got.edges == tuple((e.u, e.v, e.w * 2**k) for e in tree.edges)
        else:
            assert got.indices == tree.indices
