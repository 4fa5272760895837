"""Exact ingest: the plain-decimal fast path, the per-matrix parse memo and
the integer scaling of `comparison_view`, each against the arithmetic it
replaced."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treexact import (
    EXACT,
    DissimilarityMatrix,
    FloatPolicy,
    InvalidMatrix,
    MalformedInput,
    WeightedTree,
    all_pairs_weights,
    parse_matrix,
)
from treexact.cli import main


def reference_fraction(text):
    """The exact reader before the fast path: bounded `Fraction(text)`."""
    text = text.strip()
    if len(text) > 1000 and sum(ch.isdigit() for ch in text) > 1000:
        raise ValueError("more than 1000 digits in an exact number")
    if "e" in text or "E" in text:
        try:
            size = abs(int(text.lower().partition("e")[2]))
        except ValueError:
            size = 0
        if size > 1000:
            raise ValueError("exponent beyond +/-1000 in an exact number")
    return Fraction(text)


def outcome(read, text):
    try:
        value = read(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(value), value.numerator, value.denominator


def assert_reads_like_reference(text):
    expected = outcome(reference_fraction, text)
    for read in (EXACT.coerce, EXACT.json_parse_float):
        assert outcome(read, text) == expected, text


EDGE_LITERALS = [
    "0", "-0", "+0", "-0.000", "007", "007.50", "+5", "-5", "5.", "-5.", ".5", "-.5",
    "+.5", "1.5", " 1.5 ", "\t2.25\n", " 3 ", "1_000", "1_000.000_1",
    "1__0", "_1", "1_", "٣", "٣.٥", "１２", "1/3", "-2/4",
    "1/0", "0/5", "1e3", "1.5E-2", "1e", "e5", ".", "+", "-", "", " ", "1.2.3", "1 2",
    "--1", "+-1", "nan", "inf", "0x10", "1.5/2",
    "9" * 1000, "9" * 1001, "-" + "9" * 1000, "1." + "0" * 999, "1." + "0" * 1000,
    "." + "5" * 1000, "0." + "0" * 999 + "1", " " + "7" * 1000 + " ",
    "1e1000", "1e1001", "1e-1000", "1e-1001", "1E+1000", "1e99999999", "1e" + "0" * 1000,
]


class TestPlainDecimalFastPath:
    @pytest.mark.parametrize("text", EDGE_LITERALS)
    def test_edge_literals(self, text):
        assert_reads_like_reference(text)

    def test_seeded_literals(self):
        rng = random.Random(20261018)
        digits = "0000123456789"  # leading and trailing zeros are common

        def run(lo, hi):
            return "".join(rng.choice(digits) for _ in range(rng.randint(lo, hi)))

        for _ in range(5000):
            text = rng.choice(["", "+", "-"]) + run(0, 25)
            if rng.random() < 0.7:
                text += "." + run(0, 25)
            if rng.random() < 0.1:
                text += rng.choice("eE") + rng.choice(["", "+", "-"]) + run(1, 4)
            if rng.random() < 0.1:
                k = rng.randrange(len(text) + 1)
                text = text[:k] + rng.choice("_/٣ x") + text[k:]
            if rng.random() < 0.1:
                text = " " + text + "\n"
            assert_reads_like_reference(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.from_regex(r"\s?[+-]?[0-9_]{0,12}(\.[0-9_]{0,12})?([eE][+-]?[0-9]{1,5})?\s?", fullmatch=True)
        | st.text(alphabet="0123456789+-._eE/ ٣１", max_size=30)
    )
    def test_generated_literals(self, text):
        assert_reads_like_reference(text)

    @pytest.mark.parametrize("text", ["1" * 1001, "1e1001", "1/0", "1__0", "."])
    def test_matrix_cell_rejected_like_reference(self, text):
        with pytest.raises((ValueError, ZeroDivisionError)) as expected:
            reference_fraction(text)
        with pytest.raises(MalformedInput) as got:
            parse_matrix(f"0,{text}\n{text},0")
        assert str(expected.value) in str(got.value)


def old_grid(m):
    """`comparison_view`'s grid as built with Fraction arithmetic."""
    scale = 1
    for _, _, value in m.pairs():
        scale = scale * value.denominator // math.gcd(scale, value.denominator)
    return tuple(tuple(int(cell * scale) for cell in row) for row in m.rows)


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


class TestComparisonViewGrid:
    @pytest.mark.parametrize("seed", range(30))
    def test_grid_matches_fraction_scaling(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        edges = [
            (rng.randint(1, v - 1), v, Fraction(rng.randint(1, 400), rng.choice(PRIMES)))
            for v in range(2, n + 1)
        ]
        built = all_pairs_weights(WeightedTree.from_edges(n, edges))
        parsed = parse_matrix(built.to_csv())
        pairs = {
            (i, j): Fraction(rng.randint(1, 999), rng.choice(PRIMES) ** rng.randint(0, 2))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        arbitrary = DissimilarityMatrix.from_pairs(n, pairs)
        for m in (built, parsed, arbitrary):
            grid, _, _ = m.comparison_view()
            assert grid == old_grid(m)
            assert all(type(cell) is int for row in grid for cell in row)

    def test_coprime_denominators_widen_the_scale(self):
        cells = [f"1/{p}" for p in PRIMES[:6]]
        n = 4
        it = iter(cells)
        pairs = {(i, j): next(it) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        m = DissimilarityMatrix.from_pairs(n, pairs)
        grid, _, _ = m.comparison_view()
        assert grid == old_grid(m)
        assert grid[1][2] == 3 * 5 * 7 * 11 * 13


MIXED = [
    [0, 1, 1.0, "1"],
    ["1", "0", "1.000", 1.0],
    ["1.000", 1, 0.0, "1"],
    [1, "1", 1, "0"],
]


class TestParseMemo:
    @pytest.mark.parametrize("policy", [EXACT, FloatPolicy()])
    def test_json_types_read_alike(self, policy):
        m = parse_matrix(json.dumps({"n": 4, "d": MIXED}), "json", policy)
        assert all(value == 1 for _, _, value in m.pairs())
        assert all(m.rows[i][i] == 0 for i in range(1, 5))

    def test_mixed_types_reach_the_verdict(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 4, "d": MIXED}))
        assert main(["check", "-i", str(path)]) == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("cell", [(i, j) for i in range(4) for j in range(4)])
    def test_true_in_any_cell_invalid(self, tmp_path, capsys, mode, cell):
        rows = [list(row) for row in MIXED]
        rows[cell[0]][cell[1]] = True
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 4, "d": rows}))
        for command in ("check", "reconstruct"):
            code = main([command, "--mode", mode, "-i", str(path)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_shared_zero_text_still_checked_off_diagonal(self):
        with pytest.raises(InvalidMatrix, match="non-positive"):
            parse_matrix("0,0\n0,0")
