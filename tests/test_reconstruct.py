"""Reconstruction by Prim: small cases, pendant leaves, witnesses, round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treexact import (
    EXACT,
    DissimilarityMatrix,
    ExactPolicy,
    FloatPolicy,
    UnrealizableWitness,
    WeightedTree,
    all_pairs_weights,
    check_all,
    random_weighted_tree,
    reconstruct,
    trees_equal,
)
from treexact.conditions import _tree
from treexact.reconstruct import _prim

from helpers import all_two_matrix, matrices_entrywise_equal, path3_matrix, star_matrix


def _leaf_edge(tree, a):
    """The one edge at vertex a, as (a, neighbor, weight); a must be a leaf."""
    assert a in tree.leaves()
    (edge,) = [e for e in tree.edges if a in (e.u, e.v)]
    return (a, edge.v if edge.u == a else edge.u, edge.w)


class TestSolveBase3:
    """Three points: the base case, where a middle vertex must exist."""

    def test_middle_three(self):
        tree = reconstruct(path3_matrix())
        assert tree.edges == ((1, 3, 1), (2, 3, 2))

    def test_no_middle(self):
        result = reconstruct(all_two_matrix(n=3))
        assert isinstance(result, UnrealizableWitness)
        assert (result.stage, result.indices) == ("support_verification", (3, 1, 2))

    def test_middle_one(self):
        m = DissimilarityMatrix.from_pairs(3, {(1, 2): 5, (1, 3): 5, (2, 3): 10})
        assert reconstruct(m).edges == ((1, 2, 5), (1, 3, 5))


class TestFindPendant:
    """Pendant vertices: each leaf of the built tree hangs from its support,
    the vertex through which all of its distances factor."""

    def test_star_certificate(self):
        assert _leaf_edge(reconstruct(star_matrix()), 1) == (1, 3, 1)

    def test_path3_certificate(self):
        assert _leaf_edge(reconstruct(path3_matrix()), 1) == (1, 3, 1)

    def test_all_two_fails_support_verification(self):
        result = reconstruct(all_two_matrix())
        assert result.stage == "support_verification"
        assert result.indices == (3, 1, 2)  # d(3,2) != d(3,1) + d(1,2)
        assert result.message.startswith("d(3,2) != d(3,1) + d(1,2);")

    def test_subset_of_labels(self):
        # restricting the star to {2,3,4} leaves the path 2-3-4
        star = star_matrix()
        keep = (2, 3, 4)
        m = DissimilarityMatrix.from_rows([[star.rows[i][j] for j in keep] for i in keep])
        tree = reconstruct(m)
        assert tree.edges == ((1, 2, 2), (2, 3, 4))
        assert _leaf_edge(tree, 1) == (1, 2, 2)


class TestReconstruct:
    def test_star(self):
        tree = reconstruct(star_matrix())
        expected = WeightedTree.from_edges(4, [(1, 3, 1), (2, 3, 2), (4, 3, 4)])
        assert isinstance(tree, WeightedTree)
        assert trees_equal(tree, expected)

    def test_unit_path(self):
        m = DissimilarityMatrix.from_pairs(
            4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 3): 2, (2, 4): 2, (1, 4): 3}
        )
        tree = reconstruct(m)
        expected = WeightedTree.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
        assert trees_equal(tree, expected)

    def test_all_two_witness(self):
        result = reconstruct(all_two_matrix())
        assert isinstance(result, UnrealizableWitness)
        assert result.stage == "support_verification"
        assert result.indices == (3, 1, 2)

    def test_three_points_without_middle(self):
        result = reconstruct(all_two_matrix(n=3))
        assert isinstance(result, UnrealizableWitness)
        assert result.stage == "support_verification"
        assert result.indices == (3, 1, 2)

    def test_single_vertex(self):
        tree = reconstruct(DissimilarityMatrix.from_rows([[0]]))
        assert isinstance(tree, WeightedTree)
        assert tree.n == 1 and tree.edges == ()

    def test_single_edge(self):
        tree = reconstruct(DissimilarityMatrix.from_pairs(2, {(1, 2): 7}))
        assert tree.edges == ((1, 2, 7),)

    def test_returned_tree_always_realizes_input(self):
        m = star_matrix()
        tree = reconstruct(m)
        assert matrices_entrywise_equal(all_pairs_weights(tree), m)

    def test_witness_json(self):
        doc = reconstruct(all_two_matrix()).to_json_dict()
        assert doc["stage"] == "support_verification"
        assert doc["indices"] == [3, 1, 2]
        assert doc["realized"] is False

    def test_deterministic_witness(self):
        a = reconstruct(all_two_matrix())
        b = reconstruct(all_two_matrix())
        assert a == b

    def test_final_verification_witness_contract(self):
        # reconstruct reports only "support_verification" now; a witness of
        # any stage still serializes in the same shape
        w = UnrealizableWitness("final_verification", (1, 4), "pair (1,4) disagrees")
        doc = w.to_json_dict()
        assert doc["stage"] == "final_verification"
        assert doc["indices"] == [1, 4]
        import json

        assert w.to_json() == w.to_json()
        assert json.loads(w.to_json())["realized"] is False


@given(st.integers(3, 10), st.integers(0, 2**31 - 1))
def test_round_trip_recovers_the_generating_tree(n, seed):
    t = random_weighted_tree(n, "0.001", "10", seed)
    rebuilt = reconstruct(all_pairs_weights(t))
    assert isinstance(rebuilt, WeightedTree)
    assert trees_equal(rebuilt, t)


@given(st.integers(4, 9), st.integers(0, 2**31 - 1))
def test_certified_pendant_is_a_leaf_with_unique_support(n, seed):
    m = all_pairs_weights(random_weighted_tree(n, "0.001", "10", seed))
    tree = reconstruct(m)
    for a in tree.leaves():
        _, support, alpha = _leaf_edge(tree, a)
        assert alpha == m.rows[a][support] > 0
        # a pendant never sits strictly between two other vertices
        for x in tree.vertices():
            for y in tree.vertices():
                if len({x, y, a}) == 3:
                    assert m.rows[x][y] < m.rows[x][a] + m.rows[a][y]
        # exactly one vertex, its tree neighbor, factors all of a's distances
        supports = [
            cand
            for cand in tree.vertices()
            if cand != a
            and all(
                m.rows[a][x] == m.rows[a][cand] + m.rows[cand][x]
                for x in tree.vertices()
                if x not in (a, cand)
            )
        ]
        assert supports == [support]


def test_agreement_with_checks_on_random_matrices():
    rng = random.Random(4242)
    for _ in range(120):
        n = rng.randint(3, 7)
        pairs = {
            (i, j): Fraction(rng.randint(500, 2000), 1000)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        m = DissimilarityMatrix.from_pairs(n, pairs)
        rebuilt = reconstruct(m)
        assert isinstance(rebuilt, WeightedTree) == check_all(m).realizable


def naive_prim(m):
    """`_prim`'s record as the pass wrote it before T's rows were shared with
    the grid: every pair's sum is stored in a fresh (n + 1)^2 matrix, and
    every pair is compared with `eq`. Kept as the reference `_prim` is held to,
    as (edges, mismatch, residual, mismatched, path): mismatched[x] lists, in
    join order, every l with d(x, l) not eq T(x, l), and the residual is their
    union."""
    grid, eq, _ = m.comparison_view()
    n = m.n
    joined, outside = [1], list(range(2, n + 1))
    key, parent = list(grid[1]), [1] * (n + 1)
    path = [[0] * (n + 1) for _ in range(n + 1)]
    edges, mismatch = [], None
    mismatched = [[] for _ in range(n + 1)]
    while outside:
        v = min(outside, key=key.__getitem__)
        outside.remove(v)
        p = parent[v]
        for x in joined:
            through_p = grid[v][p] + path[p][x]
            if not eq(grid[v][x], through_p):
                mismatch = mismatch or (v, p, x)
                mismatched[v].append(x)
                mismatched[x].append(v)
            path[v][x] = path[x][v] = through_p
        joined.append(v)
        edges.append((v, p, grid[v][p]))
        for x in outside:
            if grid[v][x] < key[x]:
                key[x], parent[x] = grid[v][x], v
    residual = frozenset(x for x, others in enumerate(mismatched) if others)
    return tuple(edges), mismatch, residual, tuple(map(tuple, mismatched)), path


def _tree_pairs(rng, n, weight, policy):
    """{(i, j): path weight} of a random tree on labels 1..n, and its edges."""
    edges = [(rng.randint(1, v - 1), v, weight()) for v in range(2, n + 1)]
    tree = WeightedTree.from_edges(n, edges, policy)
    return {(i, j): d for i, j, d in all_pairs_weights(tree).pairs()}, edges


def _prim_inputs():
    """Exact trees at n = 24 and 48 with one pair moved by 1/1000, in turn any
    pair and a tree edge, and float trees with noise far below and far above
    eps, whose sums in Prim's order are often eq to their entry but not the
    same float."""
    rng = random.Random(8)
    for n in (24, 48):
        for index in range(12):
            pairs, edges = _tree_pairs(rng, n, lambda: Fraction(rng.randint(1, 10000), 1000), EXACT)
            u, v = rng.choice(edges)[:2] if index % 2 else rng.sample(range(1, n + 1), 2)
            key, delta = (min(u, v), max(u, v)), Fraction(rng.choice((-1, 1)), 1000)
            pairs[key] += delta if pairs[key] + delta > 0 else -delta
            yield DissimilarityMatrix.from_pairs(n, pairs)
    for n in (16, 24):
        for noise in (0.0, 1e-13, 1e-6):
            pairs, _ = _tree_pairs(rng, n, lambda: rng.uniform(0.001, 10.0), FloatPolicy())
            pairs = {key: d * (1 + rng.uniform(-noise, noise)) for key, d in pairs.items()}
            yield DissimilarityMatrix.from_pairs(n, pairs, FloatPolicy())


def test_prim_record_matches_the_store_every_pair_loop():
    """`_prim` gives the reference's edges, mismatch and every T(x, y),
    exactly equal, including float sums that are eq to their entry but a
    different float. Under the exact policy the labels whose T row is not
    the grid's own are the reference's residual, and each such row differs
    from the grid's exactly at the reference's mismatched partners, which
    `_tree` reads as its residual and mismatched lists wherever it keeps
    Prim's tree. A realizable exact matrix's T rows are the grid's own rows."""
    eq_not_same = kept = 0
    for m in _prim_inputs():
        got, want = _prim(m), naive_prim(m)
        assert got[:2] == want[:2]
        labels = range(m.n + 1)
        assert all(got.path[x][y] == want[4][x][y] for x in labels for y in labels)
        grid, eq, _ = m.comparison_view()
        if isinstance(m.policy, ExactPolicy):
            residual, mismatched = want[2], [tuple(sorted(row)) for row in want[3]]
            assert {x for x in labels if got.path[x] is not grid[x]} == residual
            rows = [tuple(y for y in labels if got.path[x][y] != grid[x][y]) for x in labels]
            assert rows == mismatched
            _, edges, steer_residual, steer_mismatched = _tree(m, got)
            if edges == got.edges:
                assert steer_residual == residual
                assert [tuple(row) for row in steer_mismatched] == mismatched
                kept += 1
        eq_not_same += sum(want[4][x][y] != grid[x][y] and eq(want[4][x][y], grid[x][y])
                           for x in labels for y in labels)
    assert eq_not_same and kept > 5
    path48 = WeightedTree.from_edges(48, [(v - 1, v, Fraction(v, 8)) for v in range(2, 49)])
    realizable = all_pairs_weights(path48)
    assert all(row is grid_row for row, grid_row in zip(_prim(realizable).path, realizable.grid))
