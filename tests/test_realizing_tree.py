"""Prim construction in `reconstruct`: agreement with the three checks and the
oracle under both policies, float against exact on grid inputs, and noisy
float inputs."""

import random
from fractions import Fraction

import pytest

from treexact import (
    DissimilarityMatrix,
    Edge,
    FloatPolicy,
    UnrealizableWitness,
    WeightedTree,
    Witness,
    all_pairs_weights,
    check_all,
    count_realizations,
    parse_matrix,
    random_weighted_tree,
    reconstruct,
    trees_equal,
)

from helpers import (
    all_two_matrix, caterpillar_outer_matrix, report_text, scan_report, star_matrix,
)


def _rows(m):
    return [list(row[1:]) for row in m.rows[1:]]


def _as_float(m, eps=1e-9):
    """The same matrix under the float policy, read from its decimal text."""
    fmt = m.policy.format
    return DissimilarityMatrix.from_rows(
        [[fmt(x) for x in row] for row in _rows(m)], FloatPolicy(eps)
    )


def _matrix(rng, n, kind, high=3, step=1):
    """One exact matrix on n points: tree weights lie in [1, high], and
    `step` is both the perturbation and the unit of the random kind's
    entries, drawn from 1..4 steps (many ties)."""
    if kind == "tree":
        return all_pairs_weights(random_weighted_tree(n, 1, high, rng.randrange(2**32)))
    if kind == "hidden":
        # a tree on more vertices restricted to n of them: unrealizable when
        # a hidden vertex is a branch point
        big = n + rng.randint(1, 3)
        full = all_pairs_weights(random_weighted_tree(big, 1, high, rng.randrange(2**32)))
        keep = sorted(rng.sample(range(1, big + 1), n))
        return DissimilarityMatrix.from_rows([[full.rows[i][j] for j in keep] for i in keep])
    if kind == "perturbed":
        rows = _rows(all_pairs_weights(random_weighted_tree(n, 1, high + 1, rng.randrange(2**32))))
        i, j = rng.sample(range(n), 2)
        delta = step if rows[i][j] <= step else rng.choice((-step, step))
        rows[i][j] += delta
        rows[j][i] += delta
        return DissimilarityMatrix.from_rows(rows)
    pairs = {
        (i, j): rng.randint(1, 4) * step for i in range(1, n + 1) for j in range(i + 1, n + 1)
    }
    return DissimilarityMatrix.from_pairs(n, pairs)


KINDS = ("tree", "hidden", "perturbed", "random")


def _corpus():
    rng = random.Random(2718)
    for k in range(240):
        yield _matrix(rng, 3 + k % 4, KINDS[k // 4 % 4])
    for k in range(8):
        yield _matrix(rng, 7, KINDS[k % 4])


def _noisy(rng, n, eps):
    """A float tree metric on n points, weights in [1, 10], with each entry
    moved by up to 1.5 eps (relative)."""
    m = all_pairs_weights(random_weighted_tree(n, 1, 10, rng.randrange(2**32)))
    rows = [[float(x) for x in row] for row in _rows(m)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rows[i][j] * (1 + rng.uniform(-1.5, 1.5) * eps)
    return DissimilarityMatrix.from_rows(rows, FloatPolicy(eps))


def _noisy_corpus():
    """2000 noisy float matrices, n 3..6 and every 100th at n = 7, eps 1e-2
    and 1e-3."""
    rng = random.Random(1729)
    for k in range(2000):
        yield _noisy(rng, 7 if k % 100 == 99 else 3 + k % 4, (1e-2, 1e-3)[k // 4 % 2])


def _grid_corpus():
    """Exact matrices on the 1/1000 grid, n 3..10, every kind."""
    rng = random.Random(1414)
    step = Fraction(1, 1000)
    for k in range(160):
        yield _matrix(rng, 3 + k % 8, KINDS[k // 8 % 4], 10, step)


def test_agreement_with_checks_and_oracle():
    """Exact inputs: `check`, the scan alone, `reconstruct` and the oracle
    give one verdict, and the built tree is the oracle's."""
    realizable = 0
    for m in _corpus():
        result = reconstruct(m)
        census = count_realizations(m)
        verdict = isinstance(result, WeightedTree)
        assert census.count in (0, 1)
        assert verdict == (census.count == 1)
        assert verdict == check_all(m).realizable == scan_report(m).realizable
        if verdict:
            realizable += 1
            assert trees_equal(result, census.realizations[0])
        else:
            assert result.stage == "support_verification"
    # the corpus has both answers in bulk
    assert 60 < realizable < 188


def test_deciders_agree_on_noisy_float_inputs():
    """The float half of the agreement above: `check` is realizable iff
    `reconstruct` builds a tree iff the oracle finds one. A failure that no
    check explains within eps carries Prim's (v, p, x) as its one witness."""
    realizable = fits = 0
    for m in _noisy_corpus():
        built, report = reconstruct(m), check_all(m)
        verdict = isinstance(built, WeightedTree)
        assert report.realizable == verdict == (count_realizations(m).count >= 1), m.rows
        realizable += verdict
        if report.tree_fit is not None:
            fits += 1
            fit = Witness("tree_fit", "no_tree_within_eps", triple=built.indices)
            assert report.witnesses == (fit,)
    assert 300 < realizable < 1700 and fits > 0


@pytest.mark.parametrize("corpus", [_corpus, _grid_corpus])
def test_float_equals_exact_on_grid_inputs(corpus):
    """Grid values are exact in decimal text, so the float policy must give
    the same verdict, the same edges and the same witness as exact, and
    `check` the same report: reports carry only labels."""
    trees = witnesses = 0
    for m in corpus():
        floating_m = _as_float(m)
        assert check_all(floating_m).to_json() == check_all(m).to_json()
        exact, floating = reconstruct(m), reconstruct(floating_m)
        assert type(floating) is type(exact)
        if isinstance(exact, WeightedTree):
            trees += 1
            assert [(e.u, e.v) for e in floating.edges] == [(e.u, e.v) for e in exact.edges]
            assert [e.w for e in floating.edges] == [float(e.w) for e in exact.edges]
        else:
            witnesses += 1
            assert floating == exact
    assert trees > 30 and witnesses > 30


@pytest.mark.parametrize("corpus", [_corpus, _grid_corpus, _noisy_corpus])
def test_built_tree_equals_the_validated_tree_of_its_edges(corpus):
    """`reconstruct` builds its tree through the trusted constructor. It
    equals, edge for edge and weight type for weight type, `from_edges` of
    the same edges read off the matrix in another order and orientation,
    under both policies."""
    trees = 0
    for m in corpus():
        for matrix in (m,) if m.scale is None else (m, _as_float(m)):
            built = reconstruct(matrix)
            if not isinstance(built, WeightedTree):
                continue
            trees += 1
            edges = [(v, u, matrix.d(u, v)) for u, v, _ in reversed(built.edges)]
            valid = WeightedTree.from_edges(matrix.n, edges, matrix.policy)
            assert built == valid
            assert [tuple(map(type, e)) for e in built.edges] == [
                tuple(map(type, e)) for e in valid.edges
            ]
            assert all(type(e) is Edge for e in built.edges)
    assert trees > 100


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_noisy_float_tree_matches_every_entry_within_eps(eps):
    """Each entry of a tree metric is moved by up to 1.5 eps (relative); a
    returned tree reproduces every entry of the noisy input within eps."""
    rng = random.Random(int(1 / eps))
    trees = 0
    for _ in range(300):
        n = rng.randint(3, 10)
        noisy = _noisy(rng, n, eps)
        result = reconstruct(noisy)
        if isinstance(result, UnrealizableWitness):
            assert result.stage == "support_verification"
            continue
        trees += 1
        back = all_pairs_weights(result)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert noisy.policy.eq(back.rows[i][j], noisy.rows[i][j]), (i, j)
    assert trees > 10  # the property is not vacuous


def test_companion_identity_star():
    """A star realizes this float matrix within eps, yet the median of
    {1,2,3} fails the scan's companion identities. `check` takes its verdict
    from reconstruct, which builds the star; only the scan alone reports no
    median."""
    rows = [
        [0, 11.11, 10.891, 10, 14],
        [11.11, 0, 2, 1, 5],
        [10.891, 2, 0, 1, 5],
        [10, 1, 1, 0, 4],
        [14, 5, 5, 4, 0],
    ]
    m = DissimilarityMatrix.from_rows(rows, FloatPolicy(0.01))
    star = WeightedTree.from_edges(
        5, [(1, 4, 10), (2, 4, 1), (3, 4, 1), (4, 5, 4)], FloatPolicy(0.01)
    )
    assert trees_equal(reconstruct(m), star)
    assert check_all(m).realizable and check_all(m).witnesses == ()
    scan = scan_report(m)
    assert not scan.realizable
    assert any(
        w.code == "no_median_vertex" and w.triple == (1, 2, 3)
        for w in scan.condition_ii.witnesses
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_report_equals_direct_scan_at_n24(seed):
    m = all_pairs_weights(random_weighted_tree(24, "0.001", "10", seed))
    shortcut, scan = check_all(m), scan_report(m)
    assert shortcut.realizable
    assert shortcut.to_json() == scan.to_json()
    assert report_text(shortcut) == report_text(scan)


def test_fixtures():
    assert trees_equal(
        reconstruct(star_matrix()),
        WeightedTree.from_edges(4, [(1, 3, 1), (2, 3, 2), (3, 4, 4)]),
    )
    for m in (all_two_matrix(), all_two_matrix(n=3)):
        witness = reconstruct(m)
        assert (witness.stage, witness.indices) == ("support_verification", (3, 1, 2))
    # four-point consistent, yet the two branch points are hidden
    assert isinstance(reconstruct(caterpillar_outer_matrix()), UnrealizableWitness)
    assert reconstruct(DissimilarityMatrix.from_rows([[0]])).edges == ()


NEAR_TIE_CSV = """\
0,1.7707014391705196,1.7703268125569913,0.0021515799652108134
1.7707014391705196,0,0.000627367994474489,1.7726351840202454
1.7703268125569913,0.000627367994474489,0,1.7745089759872807
0.0021515799652108134,1.7726351840202454,1.7745089759872807,0
"""


@pytest.mark.xfail(
    strict=True,
    reason="under float, a tree other than Prim's can fit within eps when an edge "
    "weighs less than about eps times the largest entry",
)
def test_float_deciders_agree_on_a_near_tie():
    """d(1,3) is less than d(1,2), so Prim attaches 3 through 1. But d(1,3)
    is within eps of d(1,2) + d(2,3), and the tree 1-2, 1-4, 2-3 fits every
    entry within eps."""
    m = parse_matrix(NEAR_TIE_CSV, policy=FloatPolicy(1e-3))
    built = isinstance(reconstruct(m), WeightedTree)
    assert check_all(m).realizable == built == (count_realizations(m).count >= 1)
