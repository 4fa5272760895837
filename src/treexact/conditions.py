"""Quadruple classification and realizability checks with failure witnesses.

A matrix is realizable by a positive-weighted tree on exactly its n labeled
points iff it passes three checks:

* four-point: in every quadruple the largest of the three pair sums is
  attained at least twice, and every triangle inequality holds;
* center condition: every quadruple whose three pair sums all tie must have
  a vertex l through which all six pairwise distances factor additively;
* median condition: in every quadruple with a strict minimum pair sum, each
  of its four triples must have a vertex l through which the triple's three
  distances factor additively (with the companion sum identities).

Checks report every witness and order them deterministically, so identical
inputs produce byte-identical reports. Under the exact policy `check_all`
first runs `reconstruct` (O(n^2)) and returns the all-ok report when it
builds a tree. Otherwise one scan serves all three checks: an O(n^3) build of
the between-masks (for each pair u, v the set of l with d(u,l) + d(l,v) = d(u,v))
and one O(n^4) pass that classifies each quadruple once and reads centers and
medians off the masks. Under the float policy a median candidate must also
pass the companion sum identities, which hold by arithmetic under the exact
policy. The float policy has no shortcut: its checks are defined by the
scan's epsilon rules, which can reject a matrix that `reconstruct` builds
within epsilon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .core import DissimilarityMatrix, WeightedTree
from .errors import DuplicateIndex, TooSmall, UniquenessViolation
from .numeric import ExactPolicy, Scalar
from .reconstruct import reconstruct

__all__ = [
    "QuadrupleKind",
    "QuadrupleClass",
    "Witness",
    "CheckFragment",
    "CheckReport",
    "classify_quadruple",
    "four_point_check",
    "condition_i_check",
    "condition_ii_check",
    "check_all",
]


class QuadrupleKind(Enum):
    ALL_THREE_EQUAL = "all_three_equal"
    TWO_EQUAL_MAX = "two_equal_max"
    VIOLATION = "violation"


@dataclass(frozen=True)
class QuadrupleClass:
    """Pair-sum pattern of one quadruple.

    `sums` lists, for indices (i, j, k, t), the pair sums
    d(i,j)+d(k,t), d(i,k)+d(j,t), d(i,t)+d(j,k). `split` is set only for
    TWO_EQUAL_MAX and names the pairing achieving the strict minimum,
    normalized so each pair is sorted and the pair containing the smallest
    label comes first.
    """

    kind: QuadrupleKind
    sums: tuple[Scalar, Scalar, Scalar]
    split: tuple[tuple[int, int], tuple[int, int]] | None = None


def _classify_sums(sums, eq):
    """Return (kind, index of the strict minimum or None)."""
    top = max(sums)
    at_top = [eq(s, top) for s in sums]
    hits = sum(at_top)
    if hits == 3:
        return QuadrupleKind.ALL_THREE_EQUAL, None
    if hits == 2:
        return QuadrupleKind.TWO_EQUAL_MAX, at_top.index(False)
    return QuadrupleKind.VIOLATION, None


_SPLITS = (
    lambda i, j, k, t: ((i, j), (k, t)),
    lambda i, j, k, t: ((i, k), (j, t)),
    lambda i, j, k, t: ((i, t), (j, k)),
)


def _normalize_split(pair_a, pair_b):
    pair_a = tuple(sorted(pair_a))
    pair_b = tuple(sorted(pair_b))
    return (pair_a, pair_b) if pair_a[0] < pair_b[0] else (pair_b, pair_a)


def classify_quadruple(m: DissimilarityMatrix, i: int, j: int, k: int, t: int) -> QuadrupleClass:
    """Classify the pair-sum pattern of four distinct labels."""
    if len({i, j, k, t}) != 4:
        raise DuplicateIndex(f"indices must be pairwise distinct, got ({i},{j},{k},{t})")
    sums = (
        m.d(i, j) + m.d(k, t),
        m.d(i, k) + m.d(j, t),
        m.d(i, t) + m.d(j, k),
    )
    kind, min_index = _classify_sums(sums, m.policy.eq)
    split = None
    if kind is QuadrupleKind.TWO_EQUAL_MAX:
        split = _normalize_split(*_SPLITS[min_index](i, j, k, t))
    return QuadrupleClass(kind, sums, split)


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


_CONDITION_RANK = {"four_point": 0, "condition_i": 1, "condition_ii": 2}


def _witness_key(w: Witness):
    return (_CONDITION_RANK[w.condition], w.quadruple or (), w.triple or ())


@dataclass(frozen=True)
class CheckFragment:
    """Verdict of one check. `caveat` marks results computed on an input that
    already fails the four-point check, where the other conditions lose their
    intended meaning."""

    ok: bool
    witnesses: tuple[Witness, ...]
    caveat: bool = False


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


def _scan(m: DissimilarityMatrix, early_exit: bool):
    """Classify every quadruple once and collect the witnesses of all three
    checks, unsorted: (four_point, condition_i, condition_ii, twin).

    With `early_exit` each check keeps only its first witness in scan order,
    and the pass stops once all three have one. `twin` is the first
    quadruple with two centers, and its two smallest centers, met while
    condition_i was still collecting; whether it is an error depends on the
    four-point verdict the caller trusts.
    """
    grid, eq, lt = m.comparison_view()
    n = m.n
    labels = range(1, n + 1)
    b = _between_masks(grid, eq, n)
    exact = isinstance(m.policy, ExactPolicy)
    medians = {}  # triple -> 0 if it has a median, else its best failing l

    # Under the exact policy each companion sum equals d(u,l) + d(v,l) + d(w,l)
    # once the three factorizations hold, so a common mask bit is a median.
    def median_failure(triple) -> int:
        u, v, w = triple
        gu, gv, gw = grid[u], grid[v], grid[w]
        masks = (b[u][v], b[u][w], b[v][w])

        def companions(l):  # x1 = x2, x2 = x3, x1 = x3
            x1, x2, x3 = gu[v] + gw[l], gu[w] + gv[l], gu[l] + gv[w]
            return eq(x1, x2), eq(x2, x3), eq(x1, x3)

        candidates = masks[0] & masks[1] & masks[2]
        if candidates and (
            exact or any(all(companions(l)) for l in labels if candidates >> l & 1)
        ):
            return 0
        return max(
            labels,
            key=lambda l: sum(mask >> l & 1 for mask in masks) + sum(companions(l)[:2]),
        )

    four_point, centers, median = [], [], []
    twin = None
    fp_open = ci_open = cii_open = True
    if n == 3:
        best = median_failure((1, 2, 3))
        if best:
            median.append(
                Witness("condition_ii", "no_median_vertex", triple=(1, 2, 3), best_l=best)
            )
    for quad in combinations(labels, 4):
        i, j, k, t = quad
        gi, gj = grid[i], grid[j]
        s1, s2, s3 = gi[j] + grid[k][t], gi[k] + gj[t], gi[t] + gj[k]
        top = max(s1, s2, s3)
        # _classify_sums inlined (a call per quadruple was much of the pass's
        # cost): hits 1, 3 and 2 are VIOLATION, ALL_THREE_EQUAL and
        # TWO_EQUAL_MAX.
        hits = eq(s1, top) + eq(s2, top) + eq(s3, top)
        if hits == 1:
            if fp_open:
                four_point.append(
                    Witness("four_point", "quadruple_max_once", quadruple=quad)
                )
                fp_open = not early_exit
        elif hits == 3:
            if ci_open:
                bi, bj, bk = b[i], b[j], b[k]
                masks = (bi[j], bi[k], bi[t], bj[k], bj[t], bk[t])
                common = masks[0] & masks[1] & masks[2] & masks[3] & masks[4] & masks[5]
                if not common:
                    best = max(labels, key=lambda l: sum(mask >> l & 1 for mask in masks))
                    centers.append(
                        Witness("condition_i", "no_center_vertex", quadruple=quad, best_l=best)
                    )
                    ci_open = not early_exit
                elif twin is None and common & (common - 1):
                    twin = (quad, *[l for l in labels if common >> l & 1][:2])
        elif cii_open:
            bi, bj, bk = b[i], b[j], b[k]
            bij, bik, bit, bjk, bjt, bkt = bi[j], bi[k], bi[t], bj[k], bj[t], bk[t]
            if exact and (
                bij & bik & bjk and bij & bit & bjt and bik & bit & bkt and bjk & bjt & bkt
            ):
                continue  # every triple has a median: skip the memo
            for triple in ((i, j, k), (i, j, t), (i, k, t), (j, k, t)):
                best = medians.get(triple)
                if best is None:
                    best = medians[triple] = median_failure(triple)
                if best:
                    median.append(
                        Witness(
                            "condition_ii", "no_median_vertex",
                            quadruple=quad, triple=triple, best_l=best,
                        )
                    )
                    if early_exit:
                        cii_open = False
                        break
        if not (fp_open or ci_open or cii_open):
            break
    if fp_open:
        for i, j, k in combinations(labels, 3):
            broken = (
                lt(grid[i][j] + grid[j][k], grid[i][k])
                or lt(grid[i][k] + grid[k][j], grid[i][j])
                or lt(grid[j][i] + grid[i][k], grid[j][k])
            )
            if broken:
                four_point.append(
                    Witness("four_point", "triangle_violation", triple=(i, j, k))
                )
                if early_exit:
                    break
    return four_point, centers, median, twin


def _fragment(witnesses, caveat: bool = False) -> CheckFragment:
    witnesses.sort(key=_witness_key)
    return CheckFragment(ok=not witnesses, witnesses=tuple(witnesses), caveat=caveat)


def _center_fragment(m, witnesses, twin, four_point_ok: bool) -> CheckFragment:
    if twin is not None and four_point_ok and isinstance(m.policy, ExactPolicy):
        quad, first, second = twin
        raise UniquenessViolation(
            f"quadruple {quad} admits two centers {first} and {second} "
            "although the four-point check passed"
        )
    return _fragment(witnesses, caveat=not four_point_ok)


def four_point_check(m: DissimilarityMatrix, early_exit: bool = False) -> CheckFragment:
    """Verify the four-point pattern on all quadruples and every triangle
    inequality (the quadruple rule with a repeated index)."""
    return _fragment(_scan(m, early_exit)[0])


def condition_i_check(
    m: DissimilarityMatrix,
    four_point_ok: bool | None = None,
    early_exit: bool = False,
) -> CheckFragment:
    """For every quadruple whose three pair sums all tie, require a center
    vertex l with d(u,v) = d(u,l) + d(v,l) for all pairs of the quadruple.

    When a center exists it is provably unique as long as the four-point
    check passes; under the exact policy that uniqueness is enforced and a
    second center raises UniquenessViolation. `four_point_ok` defaults to
    the verdict of the four-point check.
    """
    four_point, centers, _, twin = _scan(m, early_exit)
    if four_point_ok is None:
        four_point_ok = not four_point
    return _center_fragment(m, centers, twin, four_point_ok)


def condition_ii_check(
    m: DissimilarityMatrix,
    four_point_ok: bool | None = None,
    early_exit: bool = False,
) -> CheckFragment:
    """For every quadruple with a strict minimum pair sum, require each of its
    four triples to have a median vertex l satisfying the three pairwise
    factorizations and the companion sum identities; l may differ per triple.

    With only three points there is no quadruple to scan, yet the same median
    requirement still separates realizable inputs (a strict triangle on three
    points leaves no vertex to sit between the other two), so for n == 3 the
    lone triple is checked directly.
    """
    four_point, _, median, _ = _scan(m, early_exit)
    if four_point_ok is None:
        four_point_ok = not four_point
    return _fragment(median, caveat=not four_point_ok)


@dataclass(frozen=True)
class CheckReport:
    """Combined verdicts of the three checks plus every witness."""

    four_point: CheckFragment
    condition_i: CheckFragment
    condition_ii: CheckFragment

    @property
    def four_point_ok(self) -> bool:
        return self.four_point.ok

    @property
    def condition_i_ok(self) -> bool:
        return self.condition_i.ok

    @property
    def condition_ii_ok(self) -> bool:
        return self.condition_ii.ok

    @property
    def realizable(self) -> bool:
        return self.four_point.ok and self.condition_i.ok and self.condition_ii.ok

    @property
    def witnesses(self) -> tuple[Witness, ...]:
        merged = list(self.four_point.witnesses)
        merged.extend(self.condition_i.witnesses)
        merged.extend(self.condition_ii.witnesses)
        merged.sort(key=_witness_key)
        return tuple(merged)

    def to_json_dict(self) -> dict:
        return {
            "realizable": self.realizable,
            "four_point": {"ok": self.four_point.ok},
            "condition_i": {"ok": self.condition_i.ok, "caveat": self.condition_i.caveat},
            "condition_ii": {"ok": self.condition_ii.ok, "caveat": self.condition_ii.caveat},
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def check_all(m: DissimilarityMatrix, early_exit: bool = False) -> CheckReport:
    """Run all three checks; realizable means every one of them passed.

    Under the exact policy a matrix that `reconstruct` realizes passes all
    three checks without witnesses, so that report is returned after the
    O(n^2) construction. Every other input, and every float-policy input,
    pays for the one scan that finds the witnesses of all three checks:
    O(n^3) to build the between-masks plus O(n^4) over the quadruples.
    """
    if m.n < 3:
        raise TooSmall(f"realizability checks need n >= 3, got n = {m.n}")
    if isinstance(m.policy, ExactPolicy) and isinstance(reconstruct(m), WeightedTree):
        ok = CheckFragment(ok=True, witnesses=())
        return CheckReport(four_point=ok, condition_i=ok, condition_ii=ok)
    four_point, centers, median, twin = _scan(m, early_exit)
    fp = _fragment(four_point)
    return CheckReport(
        four_point=fp,
        condition_i=_center_fragment(m, centers, twin, fp.ok),
        condition_ii=_fragment(median, caveat=not fp.ok),
    )
