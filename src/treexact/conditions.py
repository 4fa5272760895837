"""The three realizability checks, with failure witnesses, run by `check_all`.

A matrix is realizable by a positive-weighted tree on exactly its n labeled
points iff it passes three checks:

* four-point: in every quadruple the largest of the three pair sums is
  attained at least twice, and every triangle inequality holds;
* center condition: every quadruple whose three pair sums all tie must have
  a vertex l through which all six pairwise distances factor additively;
* median condition: in every quadruple with a strict minimum pair sum, each
  of its four triples must have a vertex l through which the triple's three
  distances factor additively (with the companion sum identities).

`check_all` is the one entry point. Its verdict is `reconstruct`'s (O(n^2)),
under either numeric policy: a matrix that Prim builds gets the all-ok
report. Only a failure pays for explanations, ordered deterministically so
identical inputs produce byte-identical reports. One scan serves all three
checks: an O(n^3) build of the between-masks (for each pair u, v the set of
l with d(u,l) + d(l,v) = d(u,v)), one pass over the triples that decides each
triple's triangle inequalities and median, and one pass that classifies each
quadruple once, reading its center off the masks and its triples' median
verdicts off a table. Both passes visit only the tuples that meet the
residual X of Prim's tree, the labels in a pair where d differs from the
tree (every label under the float policy): the quadruple pass is
O(|X| n^3), and O(n^4) under float and when X is every label. Under the
float policy a median candidate must also pass the companion sum
identities, which hold by arithmetic under the exact policy. When the
scan's epsilon rules find no witness, the report carries Prim's failure as
a `tree_fit` witness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from json import dumps

from .core import DissimilarityMatrix, WeightedTree
from .errors import TooSmall, UniquenessViolation
from .numeric import ExactPolicy
from .reconstruct import _prim, reconstruct

__all__ = ["Witness", "CheckFragment", "CheckReport", "check_all"]


@dataclass(frozen=True)
class Witness:
    """One failing quadruple or triple, with a machine-readable reason code."""

    condition: str
    code: str
    quadruple: tuple[int, ...] | None = None
    triple: tuple[int, ...] | None = None
    best_l: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "code": self.code,
            "quadruple": list(self.quadruple) if self.quadruple else None,
            "triple": list(self.triple) if self.triple else None,
            "best_l": self.best_l,
        }


@dataclass(frozen=True)
class CheckFragment:
    """Verdict of one check. `caveat` marks results computed on an input that
    already fails the four-point check, where the other conditions lose their
    intended meaning."""

    ok: bool
    witnesses: tuple[Witness, ...]
    caveat: bool = False


@dataclass(frozen=True)
class CheckReport:
    """Combined verdicts of the three checks plus every witness. `tree_fit`
    is set when no tree fits the matrix although every check passed, which
    only the float policy's tolerance allows."""

    four_point: CheckFragment
    condition_i: CheckFragment
    condition_ii: CheckFragment
    tree_fit: Witness | None = None

    @property
    def realizable(self) -> bool:
        return (
            self.four_point.ok and self.condition_i.ok and self.condition_ii.ok
            and self.tree_fit is None
        )

    @property
    def witnesses(self) -> tuple[Witness, ...]:
        """Four-point, then center, then median witnesses, each check's in
        the order its fragment holds them, then the `tree_fit` witness."""
        fit = (self.tree_fit,) if self.tree_fit else ()
        return (
            self.four_point.witnesses + self.condition_i.witnesses
            + self.condition_ii.witnesses + fit
        )

    def to_json_dict(self) -> dict:
        return {
            "realizable": self.realizable,
            "four_point": {"ok": self.four_point.ok},
            "condition_i": {"ok": self.condition_i.ok, "caveat": self.condition_i.caveat},
            "condition_ii": {"ok": self.condition_ii.ok, "caveat": self.condition_ii.caveat},
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }

    def to_json(self) -> str:
        """`dump_json(self.to_json_dict())`, written out directly: the layout
        is fixed, and the pure-Python indenting encoder took much of `check`'s
        time on a report with many witnesses."""

        def int_list(values):
            if not values:
                return "null"
            return "[\n        " + ",\n        ".join(map(str, values)) + "\n      ]"

        witnesses = ",\n".join(
            "    {\n"
            f'      "best_l": {"null" if w.best_l is None else w.best_l},\n'
            f'      "code": {dumps(w.code)},\n'
            f'      "condition": {dumps(w.condition)},\n'
            f'      "quadruple": {int_list(w.quadruple)},\n'
            f'      "triple": {int_list(w.triple)}\n'
            "    }"
            for w in self.witnesses
        )
        witnesses = f"[\n{witnesses}\n  ]" if witnesses else "[]"
        ci, cii = self.condition_i, self.condition_ii
        return (
            "{\n"
            f'  "condition_i": {{\n    "caveat": {dumps(ci.caveat)},\n    "ok": {dumps(ci.ok)}\n  }},\n'
            f'  "condition_ii": {{\n    "caveat": {dumps(cii.caveat)},\n    "ok": {dumps(cii.ok)}\n  }},\n'
            f'  "four_point": {{\n    "ok": {dumps(self.four_point.ok)}\n  }},\n'
            f'  "realizable": {dumps(self.realizable)},\n'
            f'  "witnesses": {witnesses}\n'
            "}"
        )


def _between_masks(grid, eq, n):
    """`B[u][v]` for u != v: the bitmask of every l with d(u,v) = d(u,l) + d(v,l),
    bit l standing for label l. O(n^3)."""
    labels = range(1, n + 1)
    between = [[0] * (n + 1) for _ in range(n + 1)]
    for u in labels:
        row_u = grid[u]
        for v in range(u + 1, n + 1):
            duv, row_v = row_u[v], grid[v]
            mask = 0
            for l in labels:
                if eq(duv, row_u[l] + row_v[l]):
                    mask |= 1 << l
            between[u][v] = between[v][u] = mask
    return between


def _scan(m: DissimilarityMatrix):
    """Collect the witnesses of all three checks in two passes:
    (four_point, condition_i, condition_ii, twin).

    Only the triples and quadruples that meet the residual X are visited.
    Under the exact policy X is every label in a pair where d differs from
    the path weight of Prim's tree T (`_prim`). A tuple disjoint from X has
    no witness: its pairs, and its pairs to any l, are distances of T, a
    positive tree on exactly the points, so the four-point rule and the
    triangle inequalities hold, and its median or center is a vertex of T
    that lies in every mask it needs, the only one there. Under the float
    policy eps-equality is not transitive, so X is every label.

    The triple pass decides each triple's triangle inequalities and whether
    it has a median; the quadruple pass classifies each quadruple once and
    reads its center off the masks and its triples' median verdicts off the
    `no_median` table. Each witness list comes out in report order: triples
    without a quadruple first, then quadruples, each in lexicographic order.
    `twin` is the first quadruple with two centers, and its two smallest
    centers; whether it is an error depends on the four-point verdict.
    """
    grid, eq, lt = m.comparison_view()
    n = m.n
    labels = range(1, n + 1)
    b = _between_masks(grid, eq, n)
    exact = isinstance(m.policy, ExactPolicy)
    residual = _prim(m).residual if exact else labels
    # The tuples are enumerated lexicographically by nested loops. Once a
    # member before the last lies in X the last index runs over all of
    # later[k] = (k, n]; otherwise only over later_x[k] = X & (k, n].
    later = [range(k + 1, n + 1) for k in range(n + 1)]
    later_x = [[l for l in later[k] if l in residual] for k in range(n + 1)]
    four_point, centers, median = [], [], []
    twin = None
    # A triple u < v < w without a median maps to its best failing l, and
    # sets bit w of no_median[u][v] and bit u of no_median[v][w]: two entries
    # then hold the verdicts of a quadruple's four triples.
    failing = {}
    no_median = [[0] * (n + 1) for _ in range(n + 1)]
    for u, v in combinations(labels, 2):
        gu, gv = grid[u], grid[v]
        for w in (later if u in residual or v in residual else later_x)[v]:
            gw = grid[w]
            if lt(gu[v] + gv[w], gu[w]) or lt(gu[w] + gw[v], gu[v]) or lt(gv[u] + gu[w], gv[w]):
                four_point.append(Witness("four_point", "triangle_violation", triple=(u, v, w)))
            masks = (b[u][v], b[u][w], b[v][w])

            def companions(l):  # x1 = x2, x2 = x3, x1 = x3
                x1, x2, x3 = gu[v] + gw[l], gu[w] + gv[l], gu[l] + gv[w]
                return eq(x1, x2), eq(x2, x3), eq(x1, x3)

            # Under the exact policy each companion sum equals d(u,l) + d(v,l)
            # + d(w,l) once the three factorizations hold, so a common mask
            # bit is a median.
            candidates = masks[0] & masks[1] & masks[2]
            if candidates and (
                exact or any(all(companions(l)) for l in labels if candidates >> l & 1)
            ):
                continue
            failing[u, v, w] = max(
                labels,
                key=lambda l: sum(mask >> l & 1 for mask in masks) + sum(companions(l)[:2]),
            )
            no_median[u][v] |= 1 << w
            no_median[v][w] |= 1 << u
    # With only three points there is no quadruple to scan, yet the median
    # requirement still separates realizable inputs (a strict triangle on
    # three points leaves no vertex to sit between the other two), so the
    # lone triple's verdict is reported directly.
    if n == 3 and failing:
        median.append(
            Witness("condition_ii", "no_median_vertex", triple=(1, 2, 3), best_l=failing[1, 2, 3])
        )
    for i, j, k in combinations(labels, 3):
        gi, gj, gk = grid[i], grid[j], grid[k]
        met = i in residual or j in residual or k in residual
        for t in (later if met else later_x)[k]:
            quad = (i, j, k, t)
            s1, s2, s3 = gi[j] + gk[t], gi[k] + gj[t], gi[t] + gj[k]
            top = max(s1, s2, s3)
            # The quadruple is classified here rather than in a helper, since
            # a call per quadruple was much of the pass's cost. The largest
            # pair sum attained once breaks the four-point rule; attained
            # three times the quadruple needs a center, twice each of its
            # triples needs a median.
            hits = eq(s1, top) + eq(s2, top) + eq(s3, top)
            if hits == 1:
                four_point.append(Witness("four_point", "quadruple_max_once", quadruple=quad))
            elif hits == 3:
                bi, bj, bk = b[i], b[j], b[k]
                masks = (bi[j], bi[k], bi[t], bj[k], bj[t], bk[t])
                common = masks[0] & masks[1] & masks[2] & masks[3] & masks[4] & masks[5]
                if not common:
                    best = max(labels, key=lambda l: sum(mask >> l & 1 for mask in masks))
                    centers.append(
                        Witness("condition_i", "no_center_vertex", quadruple=quad, best_l=best)
                    )
                elif twin is None and common & (common - 1):
                    twin = (quad, *[l for l in labels if common >> l & 1][:2])
            elif no_median[i][j] & (1 << k | 1 << t) or no_median[k][t] & (1 << i | 1 << j):
                for triple in ((i, j, k), (i, j, t), (i, k, t), (j, k, t)):
                    if triple in failing:
                        median.append(
                            Witness(
                                "condition_ii", "no_median_vertex",
                                quadruple=quad, triple=triple, best_l=failing[triple],
                            )
                        )
    return four_point, centers, median, twin


def _scan_report(m: DissimilarityMatrix) -> CheckReport:
    """The report of one scan, without `check_all`'s shortcut.

    When a quadruple has a center it is provably unique as long as the
    four-point check passes; under the exact policy that uniqueness is
    enforced and a second center raises UniquenessViolation.
    """
    four_point, centers, median, twin = _scan(m)
    fp_ok = not four_point
    if twin is not None and fp_ok and isinstance(m.policy, ExactPolicy):
        quad, first, second = twin
        raise UniquenessViolation(
            f"quadruple {quad} admits two centers {first} and {second} "
            "although the four-point check passed"
        )
    return CheckReport(
        four_point=CheckFragment(ok=fp_ok, witnesses=tuple(four_point)),
        condition_i=CheckFragment(ok=not centers, witnesses=tuple(centers), caveat=not fp_ok),
        condition_ii=CheckFragment(ok=not median, witnesses=tuple(median), caveat=not fp_ok),
    )


def check_all(m: DissimilarityMatrix) -> CheckReport:
    """Run all three checks; realizable means `reconstruct` built a tree.

    A built tree gets the all-ok report after O(n^2) work. Any other input
    pays for the one scan that finds the witnesses of all three checks:
    O(n^3) to build the between-masks plus O(|X| n^3) over the quadruples
    that meet the residual X, which reuses the Prim pass cached on the
    matrix. If the scan finds none, the report's `tree_fit` witness holds
    Prim's failing (v, p, x). The theorem rules that case out under the
    exact policy.
    """
    if m.n < 3:
        raise TooSmall(f"realizability checks need n >= 3, got n = {m.n}")
    built = reconstruct(m)
    if isinstance(built, WeightedTree):
        ok = CheckFragment(ok=True, witnesses=())
        return CheckReport(four_point=ok, condition_i=ok, condition_ii=ok)
    report = _scan_report(m)
    if report.realizable:
        fit = Witness("tree_fit", "no_tree_within_eps", triple=built.indices)
        report = replace(report, tree_fit=fit)
    return report
