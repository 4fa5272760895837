"""Acceptance suite.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all)
and enforces its stated tolerance; the exact policy criteria use literal
equality, never an epsilon.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from treexact import (
    DissimilarityMatrix,
    WeightedTree,
    all_pairs_weights,
    check_all,
    count_realizations,
    random_weighted_tree,
    reconstruct,
    trees_equal,
)
from treexact.cli import main

from helpers import (
    all_two_matrix,
    caterpillar_outer_matrix,
    matrices_entrywise_equal,
    perturb_one_pair,
    star_matrix,
)


def _verdict(num, name, ok, detail=""):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} [{num}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def corpus_1000():
    """1,000 random trees with n uniform in [3, 12], weights on the 1/1000
    grid in [0.001, 10], exact policy, fixed master seed."""
    rng = random.Random(20260809)
    out = []
    for _ in range(1000):
        n = rng.randint(3, 12)
        tree = random_weighted_tree(n, "0.001", "10", seed=rng.randrange(2**32))
        out.append((tree, all_pairs_weights(tree)))
    return out


def test_criterion_1_round_trip(corpus_1000):
    started = time.monotonic()
    successes = 0
    for tree, matrix in corpus_1000:
        rebuilt = reconstruct(matrix)
        if isinstance(rebuilt, WeightedTree) and trees_equal(rebuilt, tree):
            successes += 1
    elapsed = time.monotonic() - started
    _verdict(
        1,
        "round-trip sufficiency + uniqueness",
        successes == 1000 and elapsed < 10.0,
        f"{successes}/1000 exact round trips in {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_2_necessity(corpus_1000):
    realizable = sum(1 for _, matrix in corpus_1000 if check_all(matrix).realizable)
    _verdict(
        2,
        "necessity of all three conditions",
        realizable == 1000,
        f"{realizable}/1000 tree metrics report realizable",
    )


def test_criterion_3_oracle_equivalence():
    rng = random.Random(31337)
    started = time.monotonic()
    cases = 0
    counts_ok = agreement_ok = equality_ok = True
    for n in (3, 4, 5, 6):
        for k in range(200):
            tree = random_weighted_tree(n, "0.001", "10", seed=rng.randrange(2**32))
            matrix = all_pairs_weights(tree)
            if k >= 100:
                i = rng.randint(1, n - 1)
                j = rng.randint(i + 1, n)
                matrix = perturb_one_pair(matrix, i, j, Fraction(1, 2))
            census = count_realizations(matrix)
            rebuilt = reconstruct(matrix)
            rebuilt_ok = isinstance(rebuilt, WeightedTree)
            # count >= 2 would be the uniqueness falsifier mapped to exit 3
            counts_ok &= census.count in (0, 1)
            agreement_ok &= (census.count == 1) == rebuilt_ok
            if census.count == 1 and rebuilt_ok:
                equality_ok &= trees_equal(census.realizations[0], rebuilt)
            cases += 1
    elapsed = time.monotonic() - started
    _verdict(
        3,
        "oracle equivalence",
        cases == 800 and counts_ok and agreement_ok and equality_ok and elapsed < 60.0,
        f"{cases} censuses; counts in {{0,1}}: {counts_ok}; census==reconstruct: "
        f"{agreement_ok}; trees match: {equality_ok}; {elapsed:.2f}s (budget 60s)",
    )


def test_criterion_4a_all_two_metric():
    matrix = all_two_matrix()
    report = check_all(matrix)
    witness_hit = any(
        w.condition == "condition_i" and w.quadruple == (1, 2, 3, 4)
        for w in report.witnesses
    )
    rebuilt = reconstruct(matrix)
    census = count_realizations(matrix)
    ok = (
        report.four_point.ok
        and not report.condition_i.ok
        and report.condition_ii.ok
        and witness_hit
        and not isinstance(rebuilt, WeightedTree)
        and census.count == 0
    )
    _verdict(
        4,
        "separating counterexample (a): all-2 metric",
        ok,
        "four-point ok, center condition fails on {1,2,3,4}, "
        f"reconstruct fails, census count {census.count}",
    )


def test_criterion_4b_caterpillar_outer_metric():
    matrix = caterpillar_outer_matrix()
    report = check_all(matrix)
    pair_witness = any(
        w.condition == "condition_ii" and w.quadruple and w.triple
        for w in report.witnesses
    )
    census = count_realizations(matrix)
    ok = (
        report.four_point.ok
        and report.condition_i.ok
        and not report.condition_ii.ok
        and pair_witness
        and census.count == 0
    )
    _verdict(
        4,
        "separating counterexample (b): caterpillar outer labels",
        ok,
        "four-point ok, center condition ok, median condition fails with a "
        f"(quadruple, triple) witness, census count {census.count}",
    )


def test_criterion_5_four_point_base_shapes():
    shapes = {
        "star center 3": (
            {(1, 2): 3, (1, 3): 1, (1, 4): 5, (2, 3): 2, (2, 4): 6, (3, 4): 4},
            [(1, 3, 1), (2, 3, 2), (3, 4, 4)],
        ),
        "path 1-2-3-4": (
            {(1, 2): 1, (2, 3): 2, (3, 4): 3, (1, 3): 3, (2, 4): 5, (1, 4): 6},
            [(1, 2, 1), (2, 3, 2), (3, 4, 3)],
        ),
        "path 1-2-4-3": (
            {(1, 2): 1, (2, 4): 2, (3, 4): 3, (1, 4): 3, (2, 3): 5, (1, 3): 6},
            [(1, 2, 1), (2, 4, 2), (3, 4, 3)],
        ),
        "path 2-1-3-4": (
            {(1, 2): 1, (1, 3): 2, (3, 4): 3, (2, 3): 3, (1, 4): 5, (2, 4): 6},
            [(1, 2, 1), (1, 3, 2), (3, 4, 3)],
        ),
        "path 2-1-4-3": (
            {(1, 2): 1, (1, 4): 2, (3, 4): 3, (2, 4): 3, (1, 3): 5, (2, 3): 6},
            [(1, 2, 1), (1, 4, 2), (3, 4, 3)],
        ),
    }
    failures = []
    for name, (pairs, expected_edges) in shapes.items():
        matrix = DissimilarityMatrix.from_pairs(4, pairs)
        expected = WeightedTree.from_edges(4, expected_edges)
        rebuilt = reconstruct(matrix)
        if not (isinstance(rebuilt, WeightedTree) and trees_equal(rebuilt, expected)):
            failures.append(name)
    _verdict(
        5,
        "four-vertex base shapes",
        not failures,
        "all 5 labeled shapes rebuilt with exact weights"
        if not failures
        else f"failed: {failures}",
    )


def test_criterion_6_determinism(tmp_path, capsys):
    star_csv = star_matrix().to_csv() + "\n"
    all_two_csv = all_two_matrix().to_csv() + "\n"
    tree_json = json.dumps(
        {"n": 3, "edges": [{"u": 1, "v": 3, "w": "1"}, {"u": 3, "v": 2, "w": "2"}]}
    )
    star_path = tmp_path / "star.csv"
    star_path.write_text(star_csv)
    bad_path = tmp_path / "all2.csv"
    bad_path.write_text(all_two_csv)
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(tree_json)
    invocations = [
        ["check", "-i", str(star_path)],
        ["check", "-i", str(bad_path)],  # includes witness lists
        ["reconstruct", "-i", str(star_path)],
        ["reconstruct", "-i", str(bad_path)],
        ["weights", "-i", str(tree_path)],
        ["weights", "-f", "csv", "-i", str(tree_path)],
        ["oracle", "-i", str(star_path)],
        ["oracle", "-i", str(bad_path)],
        ["gen", "-n", "9", "--seed", "2026"],
        ["gen", "-n", "9", "--seed", "2026", "-f", "csv"],
        ["reconstruct", "-f", "dot", "-i", str(star_path)],
        ["check", "-f", "text", "-i", str(bad_path)],
    ]
    mismatches = []
    for argv in invocations:
        code_a = main(list(argv))
        out_a = capsys.readouterr().out
        code_b = main(list(argv))
        out_b = capsys.readouterr().out
        if code_a != code_b or out_a != out_b:
            mismatches.append(argv)
    _verdict(
        6,
        "byte-identical reruns of every subcommand",
        not mismatches,
        f"{len(invocations)} invocation pairs compared"
        if not mismatches
        else f"diverged: {mismatches}",
    )


def test_criterion_7_agreement_on_arbitrary_matrices():
    rng = random.Random(271828)
    disagreements = 0
    unsound = 0
    successes = 0
    for _ in range(500):
        n = rng.randint(3, 8)
        pairs = {
            (i, j): Fraction(rng.randint(500, 2000), 1000)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        matrix = DissimilarityMatrix.from_pairs(n, pairs)
        rebuilt = reconstruct(matrix)
        rebuilt_ok = isinstance(rebuilt, WeightedTree)
        if rebuilt_ok != check_all(matrix).realizable:
            disagreements += 1
        if rebuilt_ok:
            successes += 1
            if not matrices_entrywise_equal(all_pairs_weights(rebuilt), matrix):
                unsound += 1
    _verdict(
        7,
        "reconstruct/check agreement on 500 arbitrary matrices",
        disagreements == 0 and unsound == 0,
        f"0 disagreements target: got {disagreements}; "
        f"{successes} reconstructions, {unsound} failed the equality check",
    )
