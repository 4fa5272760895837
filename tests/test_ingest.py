"""Exact ingest: the plain-decimal fast path, the per-matrix parse memo,
the integer grid and its scale, and the text written from the grid, each
against the arithmetic it replaced."""

import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treexact import (
    EXACT,
    DissimilarityMatrix,
    FloatPolicy,
    InvalidMatrix,
    MalformedInput,
    TreexactError,
    WeightedTree,
    all_pairs_weights,
    parse_matrix,
    path_weight,
)
from treexact.cli import main
from treexact.core import _bad_entry
from treexact.numeric import _fraction_to_text, _scaled_texts, _widest_text


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


def coprime_pq_rows(n):
    """An n x n matrix whose off-diagonal cells are p/q with a 400-digit p and
    an odd 400-digit q, drawn as the CI step that times it draws them."""
    rng = random.Random(5)
    cells = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = rng.randrange(10**399, 10**400)
            q = rng.randrange(10**399, 10**400) | 1
            cells[i][j] = cells[j][i] = f"{p}/{q}"
    return cells


class TestGridBitLimit:
    def test_grid_within_the_limit_is_built(self):
        """n = 24: 277 distinct values over a 364,806-bit scale, 1.0e8 bits."""
        m = DissimilarityMatrix.from_rows(coprime_pq_rows(24))
        assert m.scale.bit_length() == 364806

    def test_grid_over_the_limit_is_refused_before_it_is_lifted(self, tmp_path, capsys):
        """n = 70: 2416 distinct values over a scale of ~3.2e6 bits, 7.8e9
        bits, which took the lift past 1 GB."""
        path = tmp_path / "pq70.csv"
        path.write_text("\n".join(",".join(row) for row in coprime_pq_rows(70)) + "\n")
        started = time.perf_counter()
        code = main(["check", "-i", str(path)])
        assert time.perf_counter() - started < 5
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == (
            "error: the 2416 distinct values of the matrix over one denominator "
            "exceed the 200000000-bit limit of the exact grid\n"
        )

    def test_wide_places_go_to_the_sharing_reader(self):
        """n = 300 `1`s and one mirrored pair of 997-place cells: one int per
        cell over 10**997 would hold 3.0e8 bits, past the limit, so the cells
        are read by the reader that shares repeated values. The grid and scale
        are the same, and the parse's traced peak stays under 10 MB (~46 MB
        with one int per cell)."""
        n, wide = 300, "1." + "3" * 996 + "7"
        rows = [["0" if i == j else "1" for j in range(n)] for i in range(n)]
        rows[0][1] = rows[1][0] = wide
        text = "\n".join(map(",".join, rows)) + "\n"
        tracemalloc.start()
        try:
            m = parse_matrix(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one = 10**997
        grid = [[0] * (n + 1)] + [[0] + [0 if i == j else one for j in range(n)] for i in range(n)]
        grid[1][2] = grid[2][1] = int(wide.replace(".", ""))
        assert m.scale == one and m.grid == tuple(map(tuple, grid))
        assert peak < 10_000_000


MIXED = [
    [0, 1, 1.0, "1"],
    ["1", "0", "1.000", 1.0],
    ["1.000", 1, 0.0, "1"],
    [1, "1", 1, "0"],
]


class TestParseMemo:
    @pytest.mark.parametrize("policy", [EXACT, FloatPolicy()])
    def test_json_types_read_alike(self, policy):
        m = parse_matrix(json.dumps({"n": 4, "d": MIXED}), policy=policy)
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


def reference_matrix(raw_rows):
    """The exact matrix as built before the integer grid: every cell read by
    `EXACT.coerce` in row-major order, then one row-major pass over the upper
    triangle checks the diagonal, symmetry and sign. Its grid and scale come
    from `Fraction` arithmetic: the lcm of the denominators, and each cell
    times it."""
    n = len(raw_rows)
    if n < 1:
        raise InvalidMatrix("matrix must have at least one row")
    cells = []
    for i, row in enumerate(raw_rows, start=1):
        row = list(row)
        if len(row) != n:
            raise InvalidMatrix(f"row {i} has {len(row)} entries, expected {n}", row=i)
        parsed = []
        for j, cell in enumerate(row, start=1):
            try:
                parsed.append(EXACT.coerce(cell))
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise _bad_entry(cell, exc, i, j)
        cells.append(parsed)
    grid = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        if cells[i - 1][i - 1] != 0:
            raise InvalidMatrix("nonzero diagonal entry", row=i, col=i)
        for j in range(i + 1, n + 1):
            x, y = cells[i - 1][j - 1], cells[j - 1][i - 1]
            if x != y:
                raise InvalidMatrix("asymmetric entry", row=i, col=j)
            if x <= 0:
                raise InvalidMatrix("non-positive off-diagonal entry", row=i, col=j)
            grid[i][j] = grid[j][i] = x
    scale = math.lcm(*(x.denominator for row in grid for x in row))
    lifted = tuple(tuple(int(x * scale) for x in row) for row in grid)
    return DissimilarityMatrix(n, EXACT, lifted, scale)


def built(build, raw_rows):
    """The matrix `build` makes of `raw_rows`, or its error as (type,
    message, row, col)."""
    try:
        return build(raw_rows)
    except TreexactError as exc:
        return type(exc), str(exc), exc.row, exc.col


def assert_ingests_like_reference(raw_rows):
    want = built(reference_matrix, raw_rows)
    got = built(DissimilarityMatrix.from_rows, raw_rows)
    if isinstance(want, tuple):
        assert got == want, raw_rows
        return
    assert isinstance(got, DissimilarityMatrix), (raw_rows, got)
    assert got.rows == want.rows
    assert got.comparison_view()[0] == want.comparison_view()[0] == old_grid(want)
    assert got == want and hash(got) == hash(want)
    assert got.to_csv() == want.to_csv()
    assert got.to_json_dict() == want.to_json_dict()
    assert [got.d(i, j) for i, j, _ in want.pairs()] == [v for _, _, v in want.pairs()]


def literal(rng, value, plain=False):
    """`value` written in one of the forms a matrix cell takes: a plain
    decimal with 0-6 places (and spare zeros), p/q, an exponent, a JSON int
    or float, or a string with spaces. Only the first when `plain`."""
    forms = []
    for places in range(7):
        digits = value * 10**places
        if digits.denominator == 1:
            text = str(abs(digits.numerator)).rjust(places + 1, "0")
            if places:
                text = f"{text[:-places]}.{text[-places:]}" + "0" * rng.randint(0, 2)
            forms.append(("-" if value < 0 else rng.choice(["", "+"])) + text)
            if plain:
                return forms[0]
            forms.append(f"{digits.numerator}e-{places}")
            break
    k = rng.randint(1, 3)
    forms.append(f"{value.numerator * k}/{value.denominator * k}")
    if value.denominator == 1:
        forms.append(value.numerator)
    if Fraction(str(float(value))) == value:
        forms.append(float(value))
    form = rng.choice(forms)
    return f" {form} " if isinstance(form, str) and rng.random() < 0.1 else form


def seeded_rows(rng, plain):
    """A matrix of mixed cell forms, or of plain decimal strings only; most
    are valid, the rest break one rule."""
    n = rng.randint(1, 6)
    zero = Fraction(0)
    dens = [1, 10, 1000, 10**6, 32, 125] + ([] if plain else [3, 7, 12])
    rows = [[literal(rng, zero, plain) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = Fraction(rng.randint(1, 10**6), rng.choice(dens))
            rows[i][j], rows[j][i] = literal(rng, value, plain), literal(rng, value, plain)
    i, j = rng.randrange(n), rng.randrange(n)
    corruption = rng.random()
    if corruption < 0.1:
        rows[i][j] = rows[j][i] = rng.choice(["0", "-1.5", "-0.000"])
    elif corruption < 0.4:
        rows[i][j] = rng.choice([
            rng.choice(EDGE_LITERALS), True, False, None, [1], "1/7", "-1", "0", 0, "2.5",
        ])
    return rows


# Cells to set into a matrix whose other cells have three places: signs,
# leading zeros, a negative zero, 1000 and 1001 digits, one place more, digits
# of another script and an underscore.
FIXED_CELLS = [
    "+1.500", "-1.500", "001.500", "-001.500", "+0.001", "-0.000", "0.000", "0", "1.",
    "9" * 997 + ".000", "9" * 998 + ".000", "-" + "9" * 997 + ".000", "1." + "0" * 999,
    "1.5000", "1.50", "１.000", "1_0.000", "1.5e0", "1/2", " 1.500", "1.500 ",
]


class TestIngestDifferential:
    """`from_rows` on the integer grid against per-cell `EXACT.coerce`: the
    same values, grid, text and equality, or the same first error."""

    @pytest.mark.parametrize("text", EDGE_LITERALS)
    def test_edge_literals(self, text):
        assert_ingests_like_reference([["0", text], [text, "0"]])
        assert_ingests_like_reference([["0", "1", "2"], ["1", "0", "3"], ["2", "3", text]])
        assert_ingests_like_reference([["0", text, "1"], ["1", "0", "1"], [text, "1", "0"]])

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_mixes(self, seed):
        rng = random.Random(seed)
        for index in range(50):
            rows = seeded_rows(rng, plain=index % 2 == 0)
            assert_ingests_like_reference(rows)
            if all(isinstance(cell, str) and "," not in cell for row in rows for cell in row):
                text = "\n".join(",".join(row) for row in rows)
                want = built(reference_matrix, [[c.strip() for c in line.split(",")] for line in text.splitlines()])
                assert built(parse_matrix, text) == want
            doc = json.dumps({"n": len(rows), "d": rows})
            read = json.loads(doc, parse_float=EXACT.json_parse_float)
            assert built(parse_matrix, doc) == built(reference_matrix, read["d"])

    @pytest.mark.parametrize("text", FIXED_CELLS)
    def test_fixed_places(self, text):
        """One cell of a matrix whose other cells all have three places:
        alone, with its mirror, and on the diagonal."""
        base = [[f"{abs(i - j) * 1.25 + (i != j) * 0.001:.3f}" for j in range(4)] for i in range(4)]
        for cells in (((0, 2),), ((0, 2), (2, 0)), ((1, 3), (3, 1)), ((2, 2),)):
            rows = [list(row) for row in base]
            for i, j in cells:
                rows[i][j] = text
            assert_ingests_like_reference(rows)
            stripped = [[cell.strip() for cell in row] for row in rows]
            csv = "\n".join(",".join(row) for row in rows)
            assert built(parse_matrix, csv) == built(reference_matrix, stripped)

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_fixed_places(self, seed):
        """Matrices whose cells all have the same places, with spare zeros,
        signs and a cell that breaks one rule now and then."""
        rng = random.Random(seed)
        for _ in range(40):
            n, places = rng.randint(1, 7), rng.randint(0, 4)
            rows = [["0" + "." * (places > 0) + "0" * places] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    digits = str(rng.randint(1, 10**6)).rjust(places + 1, "0")
                    text = f"{digits[:len(digits) - places]}.{digits[len(digits) - places:]}"
                    text = text.rstrip(".")
                    rows[i][j] = rows[j][i] = rng.choice(["", "+", "0"]) + text
            if rng.random() < 0.5:
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i][j] = rng.choice(FIXED_CELLS + ["-1.000", "0", "2"])
            assert_ingests_like_reference(rows)

    @pytest.mark.parametrize("cell", ["1\n2", "1.5\n", "\n2"])
    def test_cells_with_line_breaks(self, cell):
        assert_ingests_like_reference([["0", cell], [cell, "0"]])
        assert_ingests_like_reference([["0", cell, "1"], ["1", "0", "1"], ["1", "1", "0"]])

    def test_number_errors_come_before_validity_errors(self):
        rows = [["0", "1", "2"], ["5", "0", "3"], ["2", "3", "1x"]]
        with pytest.raises(MalformedInput) as got:
            DissimilarityMatrix.from_rows(rows)
        assert (got.value.row, got.value.col) == (3, 3)
        assert_ingests_like_reference(rows)

    def test_row_length_error_keeps_its_place(self):
        assert_ingests_like_reference([["0", "1"], ["x"]])
        assert_ingests_like_reference([["0", "x"], ["1"]])
        assert_ingests_like_reference((("0", "1"), ("1", "0")))
        rows = lambda: [iter(["0", "1"]), iter(["1", "0"])]  # noqa: E731
        assert DissimilarityMatrix.from_rows(rows()) == reference_matrix(rows())

    def test_from_pairs_matches_its_rows(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 6)
            pairs = {
                (i, j): Fraction(rng.randint(1, 999), rng.choice([1, 4, 10, 3, 49]))
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            }
            rows = [[pairs.get((min(i, j), max(i, j)), 0) for j in range(1, n + 1)] for i in range(1, n + 1)]
            assert DissimilarityMatrix.from_pairs(n, pairs) == reference_matrix(rows)


@pytest.mark.parametrize("seed", range(20))
def test_all_pairs_weights_match_fraction_sums(seed):
    """The integer walk of `all_pairs_weights` against `Fraction` path sums."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    edges = [
        (rng.randint(1, v - 1), v, Fraction(rng.randint(1, 999), rng.choice([1, 8, 10, 1000] + PRIMES)))
        for v in range(2, n + 1)
    ]
    tree = WeightedTree.from_edges(n, edges)
    labels = range(1, n + 1)
    rows = [[path_weight(tree, i, j) for j in labels] for i in labels]
    got, want = all_pairs_weights(tree), reference_matrix(rows)
    assert got == want and got.rows == want.rows
    assert got.comparison_view()[0] == old_grid(want)
    assert got.to_csv() == want.to_csv()


SCALES = (
    st.just(1)
    | st.integers(0, 30).map(lambda k: 10**k)
    | st.tuples(st.integers(0, 20), st.integers(0, 20)).map(lambda ab: 2 ** ab[0] * 5 ** ab[1])
    | st.sampled_from(PRIMES)
    | st.lists(st.sampled_from(PRIMES + [2, 5, 10]), min_size=1, max_size=6).map(math.prod)
)


class TestGridText:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(-(10**30), 10**30) | st.just(0), max_size=8), SCALES)
    def test_matches_fraction_text(self, values, scale):
        texts = _scaled_texts(set(values) | {0}, scale)
        for v in set(values) | {0}:
            assert texts[v] == _fraction_to_text(Fraction(v, scale))

    def test_zero_and_whole_numbers(self):
        assert _scaled_texts({0, 1000, 1500, -2500, 7}, 1000) == {
            0: "0", 1000: "1", 1500: "1.5", -2500: "-2.5", 7: "0.007",
        }
        assert _scaled_texts({0, 5}, 3) == {0: "0", 5: "5/3"}

    def test_widest_text_bounds_every_written_path_weight(self):
        """On 1500 seeded trees of 2-9 vertices over mixed denominators, no
        entry of the path-weight matrix has more digits than `_widest_text`,
        some have exactly that many, and some are decimals wider than p/q
        under the lcm (p <= total, q <= lcm) would be. When the lcm has no
        prime factor but 2 and 5, the rule is the decimal bound written over
        the lcm's places: max(digits(total * 10**places / lcm), places + 1)."""
        rng = random.Random(11)
        met = wider_than_quotient = 0
        for _ in range(1500):
            n = rng.randint(2, 9)
            edges = []
            for v in range(2, n + 1):
                k = rng.randint(1, 60)
                den = rng.choice([1, 3, 7, 12, 1000, 2**k, 5**k, 3 * 2**k])
                num = rng.randint(1, 10 ** rng.randint(1, 12))
                edges.append((rng.randint(1, v - 1), v, Fraction(num, den)))
            tree = WeightedTree.from_edges(n, edges)
            weights = [w for _, _, w in tree.edges]
            width = _widest_text(weights)
            texts = [text for row in all_pairs_weights(tree)._cell_texts() for text in row]
            longest = max(sum(ch.isdigit() for ch in text) for text in texts)
            assert longest <= width
            met += longest == width
            lcm = math.lcm(*(w.denominator for w in weights))
            total = sum(w * lcm for w in weights).numerator
            twos = fives = 0
            rest = lcm
            while rest % 2 == 0:
                rest, twos = rest // 2, twos + 1
            while rest % 5 == 0:
                rest, fives = rest // 5, fives + 1
            places = max(twos, fives)
            if rest == 1:
                assert width == max(len(str(total * 10**places // lcm)), places + 1)
            else:
                wider_than_quotient += longest > len(str(total)) + len(str(lcm))
        assert met and wider_than_quotient


def test_exact_commands_do_not_build_fraction_rows(tmp_path, capsys, monkeypatch):
    """`check` and `reconstruct` on an exact n = 24 CSV matrix, realizable or
    not, end without reading the matrix's `Fraction` rows."""
    rng = random.Random(24)
    n = 24
    edges = [(rng.randint(1, v - 1), v, Fraction(rng.randint(1, 9999), 1000)) for v in range(2, n + 1)]
    good = all_pairs_weights(WeightedTree.from_edges(n, edges)).to_csv()
    lines = [line.split(",") for line in good.splitlines()]
    lines[2][9] = lines[9][2] = lines[2][9] + "1"
    bad = "\n".join(",".join(line) for line in lines)

    def unbuilt(self):
        raise AssertionError("the Fraction rows were built")

    monkeypatch.setattr(DissimilarityMatrix, "rows", property(unbuilt))
    for text, code in ((good, 0), (bad, 1)):
        path = tmp_path / "m.csv"
        path.write_text(text)
        for command in ("check", "reconstruct"):
            assert main([command, "-i", str(path)]) == code
            assert capsys.readouterr().err == ""
