"""Core types: parsing, path weights, all-pairs matrices, tree equality."""

import dataclasses
import json
import math
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treexact import (
    EXACT,
    DissimilarityMatrix,
    FloatPolicy,
    InvalidMatrix,
    InvalidTree,
    MalformedInput,
    PolicyMismatch,
    UnknownVertex,
    UnrealizableWitness,
    WeightedTree,
    all_pairs_weights,
    check_all,
    count_realizations,
    parse_matrix,
    parse_tree,
    path_weight,
    random_weighted_tree,
    reconstruct,
    tree_to_dot,
    trees_equal,
)
from treexact.core import dump_json
from treexact.numeric import NUMBER_ERRORS

from helpers import all_two_matrix, star_matrix


class TestParseMatrix:
    def test_csv_3x3(self):
        m = parse_matrix("0,3,1\n3,0,2\n1,2,0")
        assert m.n == 3
        assert m.d(1, 2) == 3
        assert m.d(1, 3) == 1
        assert m.d(2, 3) == 2
        assert m.d(2, 1) == 3

    def test_csv_asymmetric(self):
        with pytest.raises(InvalidMatrix) as err:
            parse_matrix("0,1\n2,0")
        assert (err.value.row, err.value.col) == (1, 2)
        assert "asymmetric" in str(err.value)

    def test_csv_non_positive(self):
        with pytest.raises(InvalidMatrix) as err:
            parse_matrix("0,-1\n-1,0")
        assert (err.value.row, err.value.col) == (1, 2)
        assert "non-positive" in str(err.value)

    def test_csv_nonzero_diagonal(self):
        with pytest.raises(InvalidMatrix) as err:
            parse_matrix("1,2\n2,0")
        assert (err.value.row, err.value.col) == (1, 1)

    def test_csv_bad_cell(self):
        with pytest.raises(MalformedInput) as err:
            parse_matrix("0,x\nx,0")
        assert (err.value.row, err.value.col) == (1, 2)

    def test_csv_ragged_row(self):
        with pytest.raises(InvalidMatrix) as err:
            parse_matrix("0,1,2\n1,0\n2,1,0")
        assert str(err.value) == "row 2 has 2 entries, expected 3"
        assert (err.value.row, err.value.col) == (2, None)
        with pytest.raises(InvalidMatrix, match=r"^row 2 has 2 entries, expected 3$"):
            parse_matrix('{"n": 3, "d": [[0, 1, 2], [1, 0], [2, 1, 0]]}', fmt="json")

    def test_csv_tolerates_spaces_and_trailing_newline(self):
        for tail in ("\n\n", "\n\n  \n\n"):
            m = parse_matrix("0, 3 ,1\n3,0,2\n1,2,0" + tail)
            assert m.d(1, 2) == 3

    def test_json_strings_and_numbers(self):
        m = parse_matrix(
            '{"n": 2, "d": [["0", 0.1], [0.1, "0"]]}', fmt="json"
        )
        # exact policy reads the decimal literal losslessly
        assert m.d(1, 2) == Fraction(1, 10)

    def test_json_wrapped_matrix_object(self):
        m = parse_matrix(
            '{"tree": {}, "matrix": {"n": 2, "d": [[0, 7], [7, 0]]}}', fmt="json"
        )
        assert m.d(1, 2) == 7

    def test_json_malformed(self):
        with pytest.raises(MalformedInput):
            parse_matrix("{not json", fmt="json")
        with pytest.raises(MalformedInput):
            parse_matrix('{"n": 2}', fmt="json")

    def test_empty_input(self):
        with pytest.raises(MalformedInput):
            parse_matrix("")

    @pytest.mark.parametrize("policy", [EXACT, FloatPolicy()])
    def test_json_booleans_rejected(self, policy):
        with pytest.raises(MalformedInput):
            parse_matrix('{"n": true, "d": [[0]]}', fmt="json", policy=policy)
        with pytest.raises(MalformedInput):
            parse_matrix('{"n": 2, "d": [[0, true], [true, 0]]}', fmt="json", policy=policy)

    def test_unknown_format(self):
        with pytest.raises(MalformedInput, match="^unknown matrix format 'xml'$"):
            parse_matrix("0", fmt="xml")

    def test_json_rows_must_be_arrays(self):
        with pytest.raises(MalformedInput):
            parse_matrix('{"n": 2, "d": [1, 2]}', fmt="json")

    def test_float_policy_parse(self):
        m = parse_matrix("0,1.5\n1.5,0", policy=FloatPolicy())
        assert isinstance(m.d(1, 2), float)
        assert m.d(1, 2) == 1.5


class TestExactBounds:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("9.999", Fraction(9999, 1000)),
            ("1e-1000", Fraction(1, 10**1000)),
            (" 2E+1000 ", 2 * 10**1000),
            ("9" * 1000, 10**1000 - 1),
        ],
    )
    def test_within_bounds(self, text, value):
        assert EXACT.coerce(text) == value
        assert EXACT.json_parse_float(text) == value

    @pytest.mark.parametrize(
        "text", ["1e-1001", "1e99999999", "1" * 1001, "0." + "0" * 1000 + "1", "1e" + "0" * 1000]
    )
    def test_beyond_bounds(self, text):
        for read in (EXACT.coerce, EXACT.json_parse_float):
            with pytest.raises(ValueError):
                read(text)

    def test_integer_digit_bound(self):
        for value in (10**1000 - 1, -(10**1000) + 1):
            assert EXACT.coerce(value) == value
        for value in (10**1000, -(10**1000)):
            with pytest.raises(ValueError, match="1000 digits"):
                EXACT.coerce(value)

    def test_json_float_literal_beyond_bounds(self):
        with pytest.raises(MalformedInput):
            parse_matrix('{"n": 2, "d": [[0, 1e-1001], [1e-1001, 0]]}', fmt="json")
        with pytest.raises(MalformedInput):
            parse_tree('{"n": 2, "edges": [{"u": 1, "v": 2, "w": 1e-1001}]}')


class TestMatrixValidation:
    def test_from_pairs_missing_pair(self):
        with pytest.raises(InvalidMatrix):
            DissimilarityMatrix.from_pairs(3, {(1, 2): 1, (1, 3): 1})

    def test_from_pairs_names_the_first_missing_pairs_before_building(self):
        started = time.perf_counter()
        with pytest.raises(InvalidMatrix) as err:
            DissimilarityMatrix.from_pairs(10**5, {})
        assert str(err.value) == "missing pairs: [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)]"
        assert time.perf_counter() - started < 1

    @pytest.mark.parametrize("n", [2.0, "2", True, None])
    def test_from_pairs_vertex_count_must_be_an_int(self, n):
        with pytest.raises(InvalidMatrix, match="^vertex count must be an integer"):
            DissimilarityMatrix.from_pairs(n, {(1, 2): 1})

    def test_from_pairs_diagonal_pair(self):
        with pytest.raises(InvalidMatrix, match=r"^diagonal pair in pair mapping at \(2,2\)$"):
            DissimilarityMatrix.from_pairs(2, {(1, 2): 1, (2, 2): 1})

    @pytest.mark.parametrize("policy", [EXACT, FloatPolicy()])
    @pytest.mark.parametrize("row", ["10", b"10", {"1": 0, "0": 1}, {"1", "0"}, 10])
    def test_from_rows_refuses_a_row_that_is_not_a_sequence(self, row, policy):
        """A string row would be read as its characters and a mapping by its keys."""
        with pytest.raises(InvalidMatrix, match="^row 2 is not a sequence of entries$"):
            DissimilarityMatrix.from_rows([["0", "1"], row], policy)

    def test_from_rows_refuses_rows_without_a_length(self):
        message = "^matrix rows must be a sequence, got list_iterator$"
        with pytest.raises(InvalidMatrix, match=message):
            DissimilarityMatrix.from_rows(iter([[0, 1], [1, 0]]))

    @pytest.mark.parametrize(
        "n, pairs, message",
        [
            (3, {(1, 2, 3): 1}, r"^pair key must be a tuple \(i, j\), got \(1, 2, 3\)$"),
            (2, {1: 1}, r"^pair key must be a tuple \(i, j\), got 1$"),
            (3, [(1, 2)], "^pairs must be a mapping, got list$"),
        ],
    )
    def test_from_pairs_refuses_pairs_of_the_wrong_shape(self, n, pairs, message):
        with pytest.raises(InvalidMatrix, match=message) as err:
            DissimilarityMatrix.from_pairs(n, pairs)
        assert "\n" not in str(err.value)

    def test_from_rows_no_rows(self):
        with pytest.raises(InvalidMatrix, match="^matrix must have at least one row$"):
            DissimilarityMatrix.from_rows([])

    def test_grid_shape_must_match_n(self):
        with pytest.raises(InvalidMatrix, match="^internal grid shape does not match n=2$"):
            DissimilarityMatrix(2, EXACT, ((0, 0, 0), (0, 0, 1)), 1)

    def test_from_pairs_repeated_pair_compares_by_policy(self):
        pairs = {(1, 2): 1.0, (2, 1): 1.0 + 1e-12}
        m = DissimilarityMatrix.from_pairs(2, pairs, FloatPolicy())
        assert m.policy.eq(m.d(1, 2), 1.0)
        rows = [[0, 1.0], [1.0 + 1e-12, 0]]  # from_rows accepts the same asymmetry
        assert DissimilarityMatrix.from_rows(rows, FloatPolicy()).n == 2
        with pytest.raises(InvalidMatrix, match="conflicting"):
            DissimilarityMatrix.from_pairs(2, {(1, 2): 1.0, (2, 1): 1.001}, FloatPolicy())
        with pytest.raises(InvalidMatrix, match="conflicting"):
            DissimilarityMatrix.from_pairs(2, {(1, 2): "1", (2, 1): "1.000000000001"})
        # one value in two spellings is one value
        m = DissimilarityMatrix.from_pairs(2, {(1, 2): "0.5", (2, 1): Fraction(1, 2)})
        assert m.d(1, 2) == Fraction(1, 2)

    @pytest.mark.parametrize(
        "value, reason",
        [
            ("abc", "Invalid literal"),  # ValueError
            ("1/0", "Fraction(1, 0)"),  # ZeroDivisionError
            (True, "boolean True is not a number"),  # TypeError
        ],
    )
    def test_from_pairs_bad_value_is_malformed_input(self, value, reason):
        with pytest.raises(MalformedInput, match="^bad entry") as err:
            DissimilarityMatrix.from_pairs(3, {(1, 2): 1, (2, 3): value, (1, 3): 1})
        assert reason in str(err.value)
        assert (err.value.row, err.value.col) == (2, 3)

    def test_unknown_vertex_lookup(self):
        m = parse_matrix("0,1\n1,0")
        with pytest.raises(UnknownVertex):
            m.d(0, 1)
        with pytest.raises(UnknownVertex):
            m.d(1, 3)

    def test_one_point_matrix(self):
        m = parse_matrix("0")
        assert m.n == 1


class TestExactRoundTrip:
    @pytest.mark.parametrize("text", ["0.125", "3.14", "10", "0.001", "251.37"])
    def test_decimal_serialize_lossless(self, text):
        value = EXACT.coerce(text)
        assert EXACT.coerce(EXACT.format(value)) == value
        assert EXACT.format(value) == text

    def test_non_terminating_rational(self):
        third = Fraction(1, 3)
        assert EXACT.format(third) == "1/3"
        assert EXACT.coerce("1/3") == third

    def test_matrix_csv_round_trip(self):
        text = "0,0.125,3\n0.125,0,2.5\n3,2.5,0"
        assert parse_matrix(text).to_csv() == text


class TestWeightedTree:
    def test_from_edges_normalizes_orientation(self):
        t = WeightedTree.from_edges(2, [(2, 1, 3)])
        assert t.edges[0] == (1, 2, 3)

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(InvalidTree):
            WeightedTree.from_edges(3, [(1, 2, 1)])

    def test_rejects_cycle_with_isolated_vertex(self):
        with pytest.raises(InvalidTree) as err:
            WeightedTree.from_edges(4, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        assert "connect" in str(err.value)

    def test_rejects_non_positive_weight(self):
        with pytest.raises(InvalidTree):
            WeightedTree.from_edges(2, [(1, 2, 0)])

    def test_rejects_loop_and_out_of_range(self):
        with pytest.raises(InvalidTree):
            WeightedTree.from_edges(2, [(1, 1, 1), (1, 2, 1)])
        with pytest.raises(InvalidTree):
            WeightedTree.from_edges(2, [(1, 5, 1)])

    def test_rejects_boolean_fields(self):
        with pytest.raises(InvalidTree):
            WeightedTree.from_edges(True, [])
        with pytest.raises(InvalidTree):
            WeightedTree.from_edges(2, [(True, 2, 1)])
        with pytest.raises(InvalidTree):
            WeightedTree.from_edges(2, [(1, 2, True)])
        with pytest.raises(MalformedInput):
            parse_tree('{"n": true, "edges": []}')

    def test_rejects_parallel_edges(self):
        with pytest.raises(InvalidTree):
            WeightedTree.from_edges(3, [(1, 2, 1), (2, 1, 2)])

    @pytest.mark.parametrize("item", [(1, 2), (1, 2, 3, 4), 5, None])
    def test_rejects_an_item_that_is_not_a_triple(self, item):
        with pytest.raises(InvalidTree, match=r"not a \(u, v, w\) triple") as err:
            WeightedTree.from_edges(2, [item])
        assert repr(item) in str(err.value)

    def test_leaves(self):
        t = WeightedTree.from_edges(4, [(1, 3, 1), (2, 3, 2), (3, 4, 4)])
        assert t.leaves() == [1, 2, 4]

    def test_tree_json_round_trip(self):
        t = WeightedTree.from_edges(3, [(1, 3, 1), (3, 2, Fraction(5, 2))])
        import json

        again = parse_tree(json.dumps(t.to_json_dict()))
        assert trees_equal(t, again)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("[1, 2]", 'tree JSON must be an object with "n" and "edges"'),
            ('{"n": 2, "edges": [5]}', 'edge 0 must be an object with "u", "v", "w"'),
        ],
    )
    def test_parse_tree_refuses_what_is_not_an_object(self, text, reason):
        with pytest.raises(MalformedInput) as err:
            parse_tree(text)
        assert str(err.value) == reason

    def test_dot_render(self):
        t = WeightedTree.from_edges(2, [(1, 2, 7)])
        dot = tree_to_dot(t)
        assert dot.startswith("graph tree {")
        assert '1 -- 2 [label="7"];' in dot


class TestPathWeight:
    def test_two_edge_path(self):
        t = WeightedTree.from_edges(3, [(1, 3, 1), (3, 2, 2)])
        assert path_weight(t, 1, 2) == 3
        assert path_weight(t, 1, 3) == 1

    def test_same_vertex_is_zero(self):
        t = WeightedTree.from_edges(
            5, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)]
        )
        assert path_weight(t, 5, 5) == 0

    def test_unknown_vertex(self):
        t = WeightedTree.from_edges(2, [(1, 2, 1)])
        with pytest.raises(UnknownVertex):
            path_weight(t, 1, 7)


class TestAllPairsWeights:
    def test_path(self):
        t = WeightedTree.from_edges(3, [(1, 3, 1), (3, 2, 2)])
        m = all_pairs_weights(t)
        assert m.d(1, 3) == 1
        assert m.d(3, 2) == 2
        assert m.d(1, 2) == 3

    def test_star_hand_sums(self):
        t = WeightedTree.from_edges(4, [(1, 3, 1), (2, 3, 2), (4, 3, 4)])
        m = all_pairs_weights(t)
        # each two-edge path is the sum of its arms
        assert m.d(1, 2) == 3
        assert m.d(1, 4) == 5
        assert m.d(2, 4) == 6
        assert m.d(1, 3) == 1
        assert m.d(2, 3) == 2
        assert m.d(3, 4) == 4

    def test_single_edge(self):
        m = all_pairs_weights(WeightedTree.from_edges(2, [(1, 2, 7)]))
        assert m.d(1, 2) == 7

    def test_single_vertex(self):
        m = all_pairs_weights(WeightedTree.from_edges(1, []))
        assert m.n == 1

    def test_float_sums_run_outward_from_the_smaller_label(self):
        """Both d(1,4) and d(4,1) are (0.1 + 0.2) + 0.3; summed from 4 the
        path weight would be (0.3 + 0.2) + 0.1 = 0.6."""
        t = WeightedTree.from_edges(4, [(1, 2, 0.1), (2, 3, 0.2), (3, 4, 0.3)], FloatPolicy())
        m = all_pairs_weights(t)
        assert (0.1 + 0.2) + 0.3 == 0.6000000000000001 != (0.3 + 0.2) + 0.1
        assert m.d(1, 4) == m.d(4, 1) == 0.6000000000000001
        assert all(m.d(i, j) == m.d(j, i) for i in range(1, 5) for j in range(1, 5))


class TestTreesEqual:
    def test_unordered_endpoints(self):
        a = WeightedTree.from_edges(2, [(1, 2, 3)])
        b = WeightedTree.from_edges(2, [(2, 1, 3)])
        assert trees_equal(a, b)

    def test_weight_differs(self):
        a = WeightedTree.from_edges(2, [(1, 2, 3)])
        b = WeightedTree.from_edges(2, [(1, 2, 4)])
        assert not trees_equal(a, b)

    def test_different_edge_sets(self):
        a = WeightedTree.from_edges(3, [(1, 2, 1), (2, 3, 1)])
        b = WeightedTree.from_edges(3, [(1, 3, 1), (3, 2, 1)])
        assert not trees_equal(a, b)

    def test_different_sizes(self):
        a = WeightedTree.from_edges(2, [(1, 2, 1)])
        b = WeightedTree.from_edges(3, [(1, 2, 1), (2, 3, 1)])
        assert not trees_equal(a, b)

    def test_policy_mismatch_is_an_error(self):
        a = WeightedTree.from_edges(2, [(1, 2, 3)])
        b = WeightedTree.from_edges(2, [(1, 2, 3)], policy=FloatPolicy())
        with pytest.raises(PolicyMismatch):
            trees_equal(a, b)


class TestFloatPolicy:
    def test_relative_absolute_equality(self):
        p = FloatPolicy(1e-9)
        assert p.eq(1.0, 1.0 + 1e-12)
        assert not p.eq(1.0, 1.0 + 1e-6)
        assert p.eq(1e6, 1e6 + 1e-4)  # relative part kicks in
        assert not p.lt(1.0, 1.0 + 1e-12)
        # an infinite tolerance equals nothing, an overflowed sum included
        assert not p.eq(1.0, math.inf) and not p.eq(1e308, 1e308 + 1e308)
        assert p.eq(1e308, 1e308)

    @pytest.mark.parametrize("n", [3, 4])
    def test_overflowed_sums_fit_no_tree(self, n):
        m = DissimilarityMatrix.from_pairs(
            n, {(i, j): 1e308 for i in range(1, n + 1) for j in range(i + 1, n + 1)}, FloatPolicy()
        )
        assert isinstance(reconstruct(m), UnrealizableWitness)
        assert count_realizations(m).count == 0
        assert not check_all(m).realizable

    def test_float_path_weights_beyond_float_range_invalid(self):
        tree = WeightedTree.from_edges(3, [(1, 2, 1e308), (2, 3, 1e308)], FloatPolicy())
        with pytest.raises(InvalidTree, match="float range"):
            all_pairs_weights(tree)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            FloatPolicy(0.0)
        with pytest.raises(ValueError):
            FloatPolicy(-1e-9)
        with pytest.raises(ValueError):
            FloatPolicy(float("inf"))
        with pytest.raises(ValueError):
            FloatPolicy(float("nan"))
        for epsilon in (True, 10**400, "abc"):
            with pytest.raises(NUMBER_ERRORS):
                FloatPolicy(epsilon)
        assert FloatPolicy(1) == FloatPolicy(1.0) == FloatPolicy("1")

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FloatPolicy().coerce("nan")
        for value in (10**400, -(10**400), Fraction(10**400, 3)):
            with pytest.raises(ValueError, match="non-finite"):
                FloatPolicy().coerce(value)


@given(st.integers(2, 10), st.integers(0, 2**31 - 1))
def test_adjacent_path_weight_equals_edge_weight(n, seed):
    t = random_weighted_tree(n, "0.001", "10", seed)
    for u, v, w in t.edges:
        assert path_weight(t, u, v) == w


@given(st.integers(3, 8), st.integers(0, 2**31 - 1))
def test_tree_metric_triangle_inequality(n, seed):
    t = random_weighted_tree(n, "0.001", "10", seed)
    m = all_pairs_weights(t)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                assert m.rows[i][k] <= m.rows[i][j] + m.rows[j][k]


@given(st.integers(1, 10), st.integers(0, 2**31 - 1))
def test_all_pairs_output_is_always_a_valid_matrix(n, seed):
    t = random_weighted_tree(n, "0.5", "2", seed)
    m = all_pairs_weights(t)
    # re-validating from raw rows must not raise
    rebuilt = DissimilarityMatrix.from_rows(
        [[m.rows[i][j] for j in range(1, n + 1)] for i in range(1, n + 1)]
    )
    assert rebuilt.rows == m.rows


class TestOneRepresentation:
    def test_exact_view_hands_out_the_c_comparisons(self):
        _, eq, lt = parse_matrix("0,3,1\n3,0,2\n1,2,0").comparison_view()
        assert eq is operator.eq and lt is operator.lt

    def test_float_view_hands_out_the_policy_comparisons(self):
        policy = FloatPolicy(1e-3)
        _, eq, lt = parse_matrix("0,3,1\n3,0,2\n1,2,0", policy=policy).comparison_view()
        assert eq == policy.eq and lt == policy.lt
        assert eq(1.0, 1.0005) and not lt(1.0, 1.0005)

    def test_raw_float_matrix_equals_its_validated_twin(self):
        policy = FloatPolicy()
        cells = [[0.0, 0.1, 0.3], [0.1, 0.0, 0.2], [0.3, 0.2, 0.0]]
        grid = tuple((0.0, *row) for row in [[0.0] * 3, *cells])
        raw = DissimilarityMatrix(3, policy, grid, None)
        built = DissimilarityMatrix.from_rows(cells, policy)
        assert raw == built and hash(raw) == hash(built)
        assert raw.rows == built.rows == grid

    @pytest.mark.parametrize("policy", [EXACT, FloatPolicy()])
    @pytest.mark.parametrize("field", ["n", "policy", "grid", "scale"])
    def test_fields_cannot_be_assigned_or_deleted(self, policy, field):
        m = parse_matrix("0,3,1\n3,0,2\n1,2,0", policy=policy)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(m, field)

    @pytest.mark.parametrize("policy", [EXACT, FloatPolicy()])
    @pytest.mark.parametrize("build", [star_matrix, all_two_matrix])
    def test_cached_views_leave_equality_and_hash_alone(self, policy, build):
        """A matrix whose `rows` view is cached equals, and hashes like, a
        fresh parse of the same text."""
        text = build().to_csv()
        m = parse_matrix(text, policy=policy)
        m.rows, check_all(m), reconstruct(m)
        assert "rows" in vars(m)
        fresh = parse_matrix(text, policy=policy)
        assert m == fresh and hash(m) == hash(fresh)

    def test_exact_comparisons_keep_their_results(self):
        assert EXACT.eq(Fraction(1, 2), Fraction(2, 4))
        assert not EXACT.eq(Fraction(1, 2), Fraction(1, 3))
        assert EXACT.lt(Fraction(1, 3), Fraction(1, 2))
        assert not EXACT.lt(Fraction(1, 2), Fraction(2, 4))


# Strings with the characters JSON escapes: quotes, backslashes, control
# characters, non-ASCII letters, a lone surrogate and an astral character.
JSON_TEXT = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\n\t é€ \ud800😀a')
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT
JSON_PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=5),
    max_leaves=20,
)


class TestDumpJson:
    """`dump_json` writes the bytes of `json.dumps(payload, indent=2,
    sort_keys=True)`; `test_golden` checks it on every payload the CLI
    writes."""

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(JSON_TEXT, JSON_PAYLOADS, max_size=4))
    def test_matches_the_indenting_encoder(self, payload):
        assert dump_json(payload) == json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize("payload", [
        {}, {"a": []}, {"a": {}}, {"a": ()}, {"a": [[], {}, [[]]]}, {"b": 1, "a": [True, None]},
        {"n": 10**30, "w": -0.0, "x": float("inf"), "y": float("nan")},
    ])
    def test_empty_containers_and_edge_scalars(self, payload):
        assert dump_json(payload) == json.dumps(payload, indent=2, sort_keys=True)
