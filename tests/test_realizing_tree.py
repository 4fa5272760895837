"""Prim construction: agreement with the three checks, the peel and the oracle."""

import random

import pytest

from treexact import (
    CheckReport,
    DissimilarityMatrix,
    FloatPolicy,
    PolicyMismatch,
    WeightedTree,
    all_pairs_weights,
    check_all,
    condition_i_check,
    condition_ii_check,
    count_realizations,
    four_point_check,
    random_weighted_tree,
    realizing_tree,
    reconstruct,
    trees_equal,
)
from treexact.cli import _report_text

from helpers import all_two_matrix, caterpillar_outer_matrix, star_matrix


def _scan_report(m):
    """The report of the three checks called directly, without the shortcut."""
    fp = four_point_check(m)
    return CheckReport(
        four_point=fp,
        condition_i=condition_i_check(m, four_point_ok=fp.ok),
        condition_ii=condition_ii_check(m, four_point_ok=fp.ok),
    )


def _rows(m):
    return [list(row[1:]) for row in m.rows[1:]]


def _matrix(rng, n, kind):
    """One exact matrix on n points with small integer entries (many ties)."""
    if kind == "tree":
        return all_pairs_weights(random_weighted_tree(n, 1, 3, rng.randrange(2**32)))
    if kind == "hidden":
        # a tree on more vertices restricted to n of them: unrealizable when
        # a hidden vertex is a branch point
        big = n + rng.randint(1, 3)
        full = all_pairs_weights(random_weighted_tree(big, 1, 3, rng.randrange(2**32)))
        keep = sorted(rng.sample(range(1, big + 1), n))
        return DissimilarityMatrix.from_rows([[full.rows[i][j] for j in keep] for i in keep])
    if kind == "perturbed":
        rows = _rows(all_pairs_weights(random_weighted_tree(n, 1, 4, rng.randrange(2**32))))
        i, j = rng.sample(range(n), 2)
        delta = 1 if rows[i][j] == 1 else rng.choice((-1, 1))
        rows[i][j] += delta
        rows[j][i] += delta
        return DissimilarityMatrix.from_rows(rows)
    pairs = {(i, j): rng.randint(1, 4) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return DissimilarityMatrix.from_pairs(n, pairs)


def _corpus():
    rng = random.Random(2718)
    kinds = ("tree", "hidden", "perturbed", "random")
    for k in range(240):
        yield _matrix(rng, 3 + k % 4, kinds[k // 4 % 4])
    for k in range(8):
        yield _matrix(rng, 7, kinds[k % 4])


def test_agreement_with_checks_peel_and_oracle():
    realizable = 0
    for m in _corpus():
        tree = realizing_tree(m)
        census = count_realizations(m)
        verdict = tree is not None
        assert census.count in (0, 1)
        assert verdict == (census.count == 1)
        assert verdict == check_all(m).realizable == _scan_report(m).realizable
        # the float policy still peels; integer entries are exact in floats
        peeled = reconstruct(DissimilarityMatrix.from_rows(_rows(m), FloatPolicy()))
        assert isinstance(peeled, WeightedTree) == verdict
        if verdict:
            realizable += 1
            assert trees_equal(tree, census.realizations[0])
            assert trees_equal(tree, reconstruct(m))
    # the corpus has both answers in bulk
    assert 60 < realizable < 188


@pytest.mark.parametrize("seed", [1, 2])
def test_report_equals_direct_scan_at_n24(seed):
    m = all_pairs_weights(random_weighted_tree(24, "0.001", "10", seed))
    shortcut, scan = check_all(m), _scan_report(m)
    assert shortcut.realizable
    assert shortcut.to_json() == scan.to_json()
    assert _report_text(shortcut) == _report_text(scan)


def test_fixtures():
    assert trees_equal(
        realizing_tree(star_matrix()),
        WeightedTree.from_edges(4, [(1, 3, 1), (2, 3, 2), (3, 4, 4)]),
    )
    assert realizing_tree(all_two_matrix()) is None
    assert realizing_tree(all_two_matrix(n=3)) is None
    # four-point consistent, yet the two branch points are hidden
    assert realizing_tree(caterpillar_outer_matrix()) is None
    assert realizing_tree(DissimilarityMatrix.from_rows([[0]])).edges == ()


def test_float_policy_is_refused():
    with pytest.raises(PolicyMismatch):
        realizing_tree(star_matrix(FloatPolicy()))
