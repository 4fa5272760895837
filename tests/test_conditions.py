"""The three realizability checks, through the scan and through `check_all`."""

import pytest
from hypothesis import given, strategies as st

from treexact import (
    DissimilarityMatrix,
    TooSmall,
    all_pairs_weights,
    check_all,
    random_weighted_tree,
)

from helpers import (
    all_two_matrix,
    caterpillar_outer_matrix,
    path3_matrix,
    scan_report,
    star_matrix,
    unit_path_matrix,
)


class TestFourPoint:
    def test_all_two_passes(self):
        assert scan_report(all_two_matrix()).four_point.ok

    def test_star_passes(self):
        frag = scan_report(star_matrix()).four_point
        assert frag.ok and frag.witnesses == ()

    def test_violation_witness(self):
        m = DissimilarityMatrix.from_pairs(
            4, {(1, 2): 1, (3, 4): 1, (1, 3): 1, (2, 4): 1, (1, 4): 1, (2, 3): 5}
        )
        frag = scan_report(m).four_point
        assert not frag.ok
        quads = [w.quadruple for w in frag.witnesses if w.code == "quadruple_max_once"]
        assert (1, 2, 3, 4) in quads

    def test_triangle_violation_on_three_points(self):
        m = DissimilarityMatrix.from_pairs(3, {(1, 2): 5, (1, 3): 1, (2, 3): 1})
        frag = scan_report(m).four_point
        assert not frag.ok
        assert frag.witnesses[0].code == "triangle_violation"
        assert frag.witnesses[0].triple == (1, 2, 3)


class TestConditionI:
    def test_star_has_center(self):
        frag = scan_report(star_matrix()).condition_i
        assert frag.ok and not frag.caveat

    def test_all_two_has_no_center(self):
        frag = scan_report(all_two_matrix()).condition_i
        assert not frag.ok
        assert frag.witnesses[0].quadruple == (1, 2, 3, 4)
        assert frag.witnesses[0].code == "no_center_vertex"
        assert frag.witnesses[0].best_l in (1, 2, 3, 4)

    def test_vacuous_without_tied_quadruple(self):
        assert scan_report(unit_path_matrix()).condition_i.ok

    def test_caveat_reflects_four_point(self):
        m = DissimilarityMatrix.from_pairs(3, {(1, 2): 5, (1, 3): 1, (2, 3): 1})
        assert scan_report(m).condition_i.caveat

    def test_center_may_live_outside_the_quadruple(self):
        # star with 5 arms: the quadruple {1,2,4,5} is centered at 3
        arms = {(i, 3): i for i in (1, 2, 4, 5)}
        pairs = {}
        for i in (1, 2, 4, 5):
            pairs[(min(i, 3), max(i, 3))] = arms[(i, 3)]
            for j in (1, 2, 4, 5):
                if i < j:
                    pairs[(i, j)] = arms[(i, 3)] + arms[(j, 3)]
        m = DissimilarityMatrix.from_pairs(5, pairs)
        assert scan_report(m).condition_i.ok


class TestConditionII:
    def test_unit_path_passes(self):
        frag = scan_report(unit_path_matrix()).condition_ii
        assert frag.ok

    def test_caterpillar_outer_labels_fail(self):
        frag = scan_report(caterpillar_outer_matrix()).condition_ii
        assert not frag.ok
        observed = [(w.quadruple, w.triple) for w in frag.witnesses]
        assert observed == [
            ((1, 2, 3, 4), (1, 2, 3)),
            ((1, 2, 3, 4), (1, 2, 4)),
            ((1, 2, 3, 4), (1, 3, 4)),
            ((1, 2, 3, 4), (2, 3, 4)),
        ]
        assert all(w.code == "no_median_vertex" for w in frag.witnesses)

    def test_vacuous_without_strict_quadruple(self):
        assert scan_report(all_two_matrix()).condition_ii.ok

    def test_three_point_strict_triangle_fails(self):
        frag = scan_report(all_two_matrix(n=3)).condition_ii
        assert not frag.ok
        assert frag.witnesses[0].triple == (1, 2, 3)
        assert frag.witnesses[0].quadruple is None

    def test_three_point_path_metric_passes(self):
        assert scan_report(path3_matrix()).condition_ii.ok


class TestCheckAll:
    def test_star_realizable(self):
        report = check_all(star_matrix())
        assert report.realizable
        assert report.witnesses == ()

    def test_all_two_fails_only_condition_i(self):
        report = check_all(all_two_matrix())
        assert report.four_point.ok
        assert not report.condition_i.ok
        assert report.condition_ii.ok
        assert not report.realizable

    def test_too_small(self):
        with pytest.raises(TooSmall):
            check_all(DissimilarityMatrix.from_pairs(2, {(1, 2): 1}))

    def test_report_json_is_deterministic(self):
        a = check_all(caterpillar_outer_matrix()).to_json()
        b = check_all(caterpillar_outer_matrix()).to_json()
        assert a == b

    def test_report_json_schema(self):
        import json

        doc = json.loads(check_all(all_two_matrix()).to_json())
        assert set(doc) == {
            "realizable",
            "four_point",
            "condition_i",
            "condition_ii",
            "witnesses",
        }
        assert doc["realizable"] is False
        assert doc["witnesses"][0]["quadruple"] == [1, 2, 3, 4]


@given(st.integers(3, 8), st.integers(0, 2**31 - 1))
def test_tree_derived_matrices_are_always_realizable(n, seed):
    t = random_weighted_tree(n, "0.001", "10", seed)
    report = check_all(all_pairs_weights(t))
    assert report.realizable
