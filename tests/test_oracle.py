"""Prüfer enumeration, forced-weight realization, and the census.

`_fits` and `realize_on_topology` are the census's reference: they decide
one topology at a time by the path-sum definition."""

import random
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest

from treexact import (
    EXACT,
    BadRange,
    BadSequence,
    DissimilarityMatrix,
    FloatPolicy,
    InvalidTree,
    TooLarge,
    WeightedTree,
    all_pairs_weights,
    check_all,
    count_realizations,
    prufer_decode,
    random_weighted_tree,
    reconstruct,
    trees_equal,
)
from treexact.core import Edge
from treexact.oracle import _decode

from helpers import all_two_matrix, path3_matrix, perturb_one_pair, star_matrix


def _fits(grid, eq, n: int, edges) -> bool:
    """True iff every path sum of the tree `edges` on 1..n, weighted by
    `grid`, equals the grid entry of its pair under `eq`.

    A DFS from each source accumulates each path sum edge by edge outward
    from the source, so float sums do not depend on the visiting order.
    """
    adjacency: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    dist = [0] * (n + 1)
    for src in range(1, n + 1):
        target = grid[src]
        dist[src] = 0
        seen = [False] * (n + 1)
        seen[src] = True
        stack = [src]
        while stack:
            here = stack.pop()
            dhere = dist[here]
            step = grid[here]
            for nxt in adjacency[here]:
                if not seen[nxt]:
                    seen[nxt] = True
                    dist[nxt] = dhere + step[nxt]
                    if not eq(dist[nxt], target[nxt]):
                        return False
                    stack.append(nxt)
    return True


def realize_on_topology(m: DissimilarityMatrix, topology) -> WeightedTree | None:
    """Weight a fixed topology by the matrix and keep it iff it reproduces
    every pairwise value. Returns None when the topology cannot realize m.

    Raises InvalidTree unless `topology` is the edge set of a tree on 1..n;
    `WeightedTree.from_edges` checks it with unit weights, once.
    """
    unit = []
    for edge in topology:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise InvalidTree(f"edge {edge!r} is not a pair of labels") from None
        unit.append((u, v, 1))
    shape = WeightedTree.from_edges(m.n, unit, m.policy)
    grid, eq, _ = m.comparison_view()
    if not _fits(grid, eq, m.n, [(u, v) for u, v, _ in shape.edges]):
        return None
    rows = m.rows
    return WeightedTree(m.n, tuple(Edge(u, v, rows[u][v]) for u, v, _ in shape.edges), m.policy)


def prufer_encode(edges, n):
    """Naive encoder: remove the smallest leaf n - 2 times, recording its
    neighbour each time."""
    neighbours = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    seq = []
    for _ in range(n - 2):
        leaf = min(v for v, near in neighbours.items() if len(near) == 1)
        (parent,) = neighbours.pop(leaf)
        neighbours[parent].discard(leaf)
        seq.append(parent)
    return tuple(seq)


class TestPruferDecode:
    def test_star_sequence(self):
        assert prufer_decode((3, 3), 4) == ((1, 3), (2, 3), (3, 4))

    def test_empty_sequence(self):
        assert prufer_decode((), 2) == ((1, 2),)

    def test_three_vertices(self):
        assert prufer_decode((2,), 3) == ((1, 2), (2, 3))

    def test_wrong_length(self):
        with pytest.raises(BadSequence):
            prufer_decode((1, 2, 3), 4)

    def test_out_of_range_label(self):
        with pytest.raises(BadSequence):
            prufer_decode((5,), 3)

    def test_needs_two_vertices(self):
        with pytest.raises(BadSequence):
            prufer_decode((), 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bijection(self, n):
        decoded = {
            prufer_decode(seq, n) for seq in product(range(1, n + 1), repeat=n - 2)
        }
        assert len(decoded) == n ** (n - 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_naive_encoder_inverts_the_decoder(self, n):
        for seq in product(range(1, n + 1), repeat=n - 2):
            edges = prufer_decode(seq, n)
            assert len(edges) == n - 1
            assert prufer_encode(edges, n) == seq

    @pytest.mark.parametrize(
        "seq, n", [((True,), 3), ((1, False), 4), ((), True), ((1.0,), 3), ((1,), 3.0)]
    )
    def test_booleans_and_floats_are_not_labels(self, seq, n):
        with pytest.raises(BadSequence):
            prufer_decode(seq, n)


class TestRealizeOnTopology:
    def test_star_metric_on_star_topology(self):
        tree = realize_on_topology(star_matrix(), ((1, 3), (2, 3), (3, 4)))
        assert tree is not None
        assert tree.edges == ((1, 3, 1), (2, 3, 2), (3, 4, 4))

    def test_star_metric_on_path_topology(self):
        assert realize_on_topology(star_matrix(), ((1, 2), (2, 3), (3, 4))) is None

    @pytest.mark.parametrize(
        "topology",
        [
            ((1.0, 2), (2, 3)),
            ((1, 2, 5), (2, 3)),
            ((1,), (2, 3)),
            (5, (2, 3)),
            ((True, 2), (2, 3)),
            ((1, 2), (2, 1)),
            ((1, 2), (1, 4)),
            ((1, 1), (2, 3)),
            ((1, 2),),
            ((1, 2), (0, 3)),
            ((1, 2), (-1, 3)),
        ],
    )
    def test_malformed_topology_is_an_invalid_tree(self, topology):
        with pytest.raises(InvalidTree):
            realize_on_topology(path3_matrix(), topology)

    def test_cycle_is_an_invalid_tree(self):
        with pytest.raises(InvalidTree, match="connect"):
            realize_on_topology(all_two_matrix(), ((1, 2), (2, 3), (1, 3)))

    def test_all_two_fails_on_every_topology(self):
        m = all_two_matrix()
        for seq in product(range(1, 5), repeat=2):
            assert realize_on_topology(m, prufer_decode(seq, 4)) is None


class TestCountRealizations:
    def test_star(self):
        census = count_realizations(star_matrix())
        assert census.topologies_examined == 16
        assert census.count == 1
        assert trees_equal(census.realizations[0], reconstruct(star_matrix()))

    def test_all_two(self):
        census = count_realizations(all_two_matrix())
        assert census.count == 0

    def test_three_points(self):
        census = count_realizations(path3_matrix())
        assert census.topologies_examined == 3
        assert census.count == 1

    def test_cap(self):
        t = random_weighted_tree(9, 1, 2, seed=1)
        with pytest.raises(TooLarge):
            count_realizations(all_pairs_weights(t))
        # override below the default also enforced
        with pytest.raises(TooLarge):
            count_realizations(star_matrix(), cap=3)

    def test_single_vertex_and_edge_conventions(self):
        from treexact import DissimilarityMatrix

        one = count_realizations(DissimilarityMatrix.from_rows([[0]]))
        assert (one.topologies_examined, one.count) == (1, 1)
        two = count_realizations(DissimilarityMatrix.from_pairs(2, {(1, 2): 7}))
        assert (two.topologies_examined, two.count) == (1, 1)
        assert two.realizations[0].edges == ((1, 2, 7),)

    def test_census_json(self):
        doc = count_realizations(star_matrix()).to_json_dict()
        assert set(doc) == {"n", "topologies", "count", "realizations"}
        assert doc["count"] == 1

    def test_generating_topology_is_the_unique_realization(self):
        t = random_weighted_tree(5, "0.5", "3", seed=99)
        m = all_pairs_weights(t)
        base = tuple((u, v) for u, v, _ in t.edges)
        hits = []
        for seq in product(range(1, 6), repeat=3):
            topo = prufer_decode(seq, 5)
            if realize_on_topology(m, topo) is not None:
                hits.append(topo)
        assert hits == [base]


def _reference_topologies(m):
    """Every topology whose forced weights reproduce m, decided from the
    full path-weight matrix of `all_pairs_weights`."""
    n, policy = m.n, m.policy
    hits = []
    for seq in product(range(1, n + 1), repeat=n - 2):
        topology = prufer_decode(seq, n)
        tree = WeightedTree.from_edges(n, [(u, v, m.rows[u][v]) for u, v in topology], policy)
        d = all_pairs_weights(tree).rows
        if all(policy.eq(d[i][j], m.rows[i][j]) for i in range(1, n + 1) for j in range(1, n + 1)):
            hits.append(topology)
    return sorted(hits)


def test_census_matches_a_path_weight_reference():
    # Integer cells keep float path sums exact in any summation order.
    rng = random.Random(3)
    counts = []
    for seed, policy in enumerate((EXACT, FloatPolicy(0.3))):
        corpus = []
        for _ in range(40):
            n = rng.randint(3, 6)
            pairs = {(i, j): rng.randint(1, 3) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
            corpus.append(DissimilarityMatrix.from_pairs(n, pairs, policy))
        tree = random_weighted_tree(7, 1, 9, seed=seed)
        integral = WeightedTree.from_edges(7, [(u, v, int(w)) for u, v, w in tree.edges], policy)
        corpus.append(all_pairs_weights(integral))
        for m in corpus:
            census = count_realizations(m)
            want = _reference_topologies(m)
            assert census.topologies_examined == m.n ** (m.n - 2)
            assert census.count == len(want)
            assert [tuple((u, v) for u, v, _ in t.edges) for t in census.realizations] == want
            counts.append(census.count)
    assert {0, 1} <= set(counts)
    assert max(counts) >= 2


def _full_census(m):
    """The census without pruning: every Prüfer sequence is decoded by
    `_decode` and decided by `_fits`. Returns the number of sequences and
    the sorted edge sets of the realizations."""
    n = m.n
    grid, eq, _ = m.comparison_view()
    examined, hits = 0, []
    for seq in product(range(1, n + 1), repeat=n - 2):
        examined += 1
        edges = _decode(seq, n)
        if _fits(grid, eq, n, edges):
            hits.append(tuple(sorted((min(u, v), max(u, v)) for u, v in edges)))
    return examined, sorted(hits)


def _jittered_tree_metric(n, seed, eps, inside):
    """The float path-weight matrix of a random tree with non-integer
    weights, each off-diagonal cell scaled by 1 + r with |r| up to eps / 2
    (`inside`) or between eps and 3 eps (outside), a random sign each."""
    rng = random.Random(seed)
    policy = FloatPolicy(eps)
    tree = random_weighted_tree(n, "0.5", "5", seed=seed, policy=policy)
    rows = all_pairs_weights(tree).rows
    pairs = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            r = rng.uniform(0, eps / 2) if inside else rng.uniform(eps, 3 * eps)
            pairs[(i, j)] = rows[i][j] * (1 + rng.choice((-1, 1)) * r)
    return DissimilarityMatrix.from_pairs(n, pairs, policy)


def test_census_matches_a_census_without_the_two_edge_test():
    """The search only cuts short topologies that `_fits` rejects: on
    random {1..3} matrices under exact, on jittered non-integer float tree
    metrics under two tolerances, on non-integer float tree metrics at a
    tolerance below the float spacing, and on all 4^6 symmetric 4 x 4
    matrices over 1..4 under exact and eps 0.3, the census has the same
    number of topologies and the same ordered realizations as one that
    decides every Prüfer sequence with `_fits`. Under exact, `check_all`
    also calls d realizable iff `reconstruct` builds a tree iff the census
    finds one, and the two trees are equal; under float, near ties split
    the deciders from the census (ROADMAP item 3)."""
    rng = random.Random(11)
    corpus = []
    for _ in range(24):
        n = rng.randint(3, 7)
        pairs = {(i, j): rng.randint(1, 3) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        corpus.append(DissimilarityMatrix.from_pairs(n, pairs, EXACT))
    for n in range(3, 8):
        corpus.append(all_pairs_weights(random_weighted_tree(n, "0.5", "5", seed=n)))
    for eps in (1e-3, 1e-6):
        for inside in (True, False):
            for n in range(4, 8):
                corpus.append(_jittered_tree_metric(n, rng.randrange(10**6), eps, inside))
    # At eps = 1e-16, `eq` is `==` on cells of 0.5 and more, so a verdict
    # can turn on the order of a path sum's terms.
    for n in range(4, 7):
        for _ in range(10):
            tree = random_weighted_tree(n, "0.5", "5", seed=rng.randrange(10**6), policy=FloatPolicy(1e-16))
            corpus.append(all_pairs_weights(tree))
    pairs = list(combinations(range(1, 5), 2))
    for policy in (EXACT, FloatPolicy(0.3)):
        for values in product(range(1, 5), repeat=len(pairs)):
            corpus.append(DissimilarityMatrix.from_pairs(4, dict(zip(pairs, values)), policy))
    counts = set()
    for m in corpus:
        census = count_realizations(m)
        examined, want = _full_census(m)
        assert census.topologies_examined == examined == m.n ** (m.n - 2)
        assert census.count == len(want)
        assert [tuple((u, v) for u, v, _ in t.edges) for t in census.realizations] == want
        counts.add((m.policy.name, census.count))
        if m.policy.name == "exact":
            rebuilt = reconstruct(m)
            built = isinstance(rebuilt, WeightedTree)
            assert (census.count == 1) == built == check_all(m).realizable
            if built:
                assert trees_equal(census.realizations[0], rebuilt)
    assert {("exact", 0), ("exact", 1), ("float", 0), ("float", 1)} <= counts


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_census_lists_every_topology_once_when_every_tree_fits(n):
    """Under eps = 1e9 every topology fits a {1..3} matrix, so the census
    lists each of Cayley's n^(n-2) trees, the `prufer_decode` of each
    sequence, exactly once."""
    rng = random.Random(n)
    pairs = {(i, j): rng.randint(1, 3) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    census = count_realizations(DissimilarityMatrix.from_pairs(n, pairs, FloatPolicy(1e9)))
    every = sorted(prufer_decode(seq, n) for seq in product(range(1, n + 1), repeat=n - 2))
    assert census.topologies_examined == len(every) == n ** (n - 2)
    assert [tuple((u, v) for u, v, _ in t.edges) for t in census.realizations] == every


def _steiner_tree_metric(n, seed):
    """The path weights among 1..n of a random tree on n + 1 vertices whose
    vertex n + 1 has degree 3 or more: a tree metric that no tree on
    exactly 1..n realizes."""
    while True:
        tree = random_weighted_tree(n + 1, "0.5", "5", seed=seed)
        degree = [0] * (n + 2)
        for u, v, _ in tree.edges:
            degree[u] += 1
            degree[v] += 1
        hubs = [x for x in range(1, n + 2) if degree[x] >= 3]
        if hubs:
            break
        seed += 1
    swap = {hubs[0]: n + 1, n + 1: hubs[0]}
    edges = [(swap.get(u, u), swap.get(v, v), w) for u, v, w in tree.edges]
    rows = all_pairs_weights(WeightedTree.from_edges(n + 1, edges)).rows
    return DissimilarityMatrix.from_pairs(
        n, {(i, j): rows[i][j] for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    )


@pytest.mark.parametrize("n", range(9, 15))
def test_deciders_agree_above_the_default_cap(n):
    """Above n = 8, under a raised cap: the census finds one tree iff
    `reconstruct` builds one iff `check_all` calls d realizable, and the
    two trees are equal, on a realizable input, the same with one pair
    moved, a random {1..3} matrix and a tree metric that needs a Steiner
    vertex."""
    rng = random.Random(n)
    realizable = all_pairs_weights(random_weighted_tree(n, "0.5", "5", seed=n))
    a, b = sorted(rng.sample(range(1, n + 1), 2))
    pairs = {(i, j): rng.randint(1, 3) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    steiner = _steiner_tree_metric(n, n)
    assert check_all(steiner).four_point.ok
    corpus = [
        realizable,
        perturb_one_pair(realizable, a, b),
        DissimilarityMatrix.from_pairs(n, pairs),
        steiner,
    ]
    verdicts = []
    for m in corpus:
        census = count_realizations(m, cap=14)
        rebuilt = reconstruct(m)
        built = isinstance(rebuilt, WeightedTree)
        assert census.topologies_examined == n ** (n - 2)
        assert (census.count == 1) == built == check_all(m).realizable
        assert census.count in (0, 1)
        if built:
            assert trees_equal(census.realizations[0], rebuilt)
        verdicts.append(built)
    assert verdicts == [True, False, False, False]


def test_census_keeps_its_own_stack():
    """An n = 14 census runs two dozen frames above the caller's depth, so
    a raised `--cap` cannot reach the recursion limit."""
    m = all_pairs_weights(random_weighted_tree(14, "0.5", "5", seed=14))
    frame, depth = sys._getframe(), 0
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 24)
    try:
        census = count_realizations(m, cap=14)
    finally:
        sys.setrecursionlimit(limit)
    assert census.count == 1


class TestRandomWeightedTree:
    def test_deterministic(self):
        a = random_weighted_tree(7, "0.001", "10", seed=42)
        b = random_weighted_tree(7, "0.001", "10", seed=42)
        assert trees_equal(a, b)

    def test_different_seeds_differ(self):
        a = random_weighted_tree(7, "0.001", "10", seed=1)
        b = random_weighted_tree(7, "0.001", "10", seed=2)
        assert not trees_equal(a, b)

    def test_size_and_connectivity(self):
        t = random_weighted_tree(3, 1, 2, seed=5)
        assert isinstance(t, WeightedTree)  # constructor enforces tree shape
        assert len(t.edges) == 2

    def test_weights_on_grid_within_range(self):
        t = random_weighted_tree(10, "0.25", "0.5", seed=11)
        for _, _, w in t.edges:
            assert Fraction(1, 4) <= w <= Fraction(1, 2)
            assert (w * 1000).denominator == 1

    def test_bad_ranges(self):
        with pytest.raises(BadRange):
            random_weighted_tree(0, 1, 2, seed=0)
        with pytest.raises(BadRange):
            random_weighted_tree(3, 0, 2, seed=0)
        with pytest.raises(BadRange):
            random_weighted_tree(3, 3, 2, seed=0)
        with pytest.raises(BadRange):
            random_weighted_tree(3, "0.0001", "0.0005", seed=0)
        for n, low, high in [(True, 1, 2), (3, "1/0", 2), (3, 1, "1/0"), (3, 10**1000, 10**1000 + 1)]:
            with pytest.raises(BadRange):
                random_weighted_tree(n, low, high, seed=0)

    def test_long_arguments_are_echoed_short(self):
        long9 = "9" * 999
        for args in [(long9, 1, 2), (3, long9, 1), (3, "-" + long9, 1)]:
            with pytest.raises(BadRange) as exc:
                random_weighted_tree(*args, seed=0)
            assert len(str(exc.value)) < 200

    def test_single_vertex(self):
        t = random_weighted_tree(1, 1, 2, seed=0)
        assert t.n == 1 and t.edges == ()
