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
first tries `realizing_tree` (O(n^2)) and returns the all-ok report when it
succeeds; the O(n^5) scan runs only to explain an unrealizable input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .core import DissimilarityMatrix
from .errors import DuplicateIndex, TooSmall, UniquenessViolation
from .numeric import ExactPolicy, Scalar
from .reconstruct import realizing_tree

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


def four_point_check(m: DissimilarityMatrix, early_exit: bool = False) -> CheckFragment:
    """Verify the four-point pattern on all quadruples and every triangle
    inequality (the quadruple rule with a repeated index)."""
    grid, eq, lt = m.comparison_view()
    n = m.n
    witnesses = []
    for i, j, k, t in combinations(range(1, n + 1), 4):
        sums = (
            grid[i][j] + grid[k][t],
            grid[i][k] + grid[j][t],
            grid[i][t] + grid[j][k],
        )
        kind, _ = _classify_sums(sums, eq)
        if kind is QuadrupleKind.VIOLATION:
            witnesses.append(
                Witness("four_point", "quadruple_max_once", quadruple=(i, j, k, t))
            )
            if early_exit:
                break
    if not (early_exit and witnesses):
        for i, j, k in combinations(range(1, n + 1), 3):
            broken = (
                lt(grid[i][j] + grid[j][k], grid[i][k])
                or lt(grid[i][k] + grid[k][j], grid[i][j])
                or lt(grid[j][i] + grid[i][k], grid[j][k])
            )
            if broken:
                witnesses.append(
                    Witness("four_point", "triangle_violation", triple=(i, j, k))
                )
                if early_exit:
                    break
    witnesses.sort(key=_witness_key)
    return CheckFragment(ok=not witnesses, witnesses=tuple(witnesses))


def _center_holds(grid, eq, quad, l) -> bool:
    for u, v in combinations(quad, 2):
        if not eq(grid[u][v], grid[u][l] + grid[v][l]):
            return False
    return True


def _center_score(grid, eq, quad, l) -> int:
    return sum(
        1 for u, v in combinations(quad, 2) if eq(grid[u][v], grid[u][l] + grid[v][l])
    )


def _best_failing(grid, eq, points, n, score) -> int:
    best, best_hits = 1, -1
    for l in range(1, n + 1):
        hits = score(grid, eq, points, l)
        if hits > best_hits:
            best, best_hits = l, hits
    return best


def condition_i_check(
    m: DissimilarityMatrix,
    four_point_ok: bool | None = None,
    early_exit: bool = False,
) -> CheckFragment:
    """For every quadruple whose three pair sums all tie, require a center
    vertex l with d(u,v) = d(u,l) + d(v,l) for all pairs of the quadruple.

    When a center exists it is provably unique as long as the four-point
    check passes; under the exact policy that uniqueness is enforced and a
    second center raises UniquenessViolation.
    """
    if four_point_ok is None:
        four_point_ok = four_point_check(m, early_exit=True).ok
    caveat = not four_point_ok
    grid, eq, _ = m.comparison_view()
    n = m.n
    enforce_unique = four_point_ok and isinstance(m.policy, ExactPolicy)
    witnesses = []
    for quad in combinations(range(1, n + 1), 4):
        i, j, k, t = quad
        sums = (
            grid[i][j] + grid[k][t],
            grid[i][k] + grid[j][t],
            grid[i][t] + grid[j][k],
        )
        kind, _ = _classify_sums(sums, eq)
        if kind is not QuadrupleKind.ALL_THREE_EQUAL:
            continue
        centers = []
        for l in range(1, n + 1):
            if _center_holds(grid, eq, quad, l):
                centers.append(l)
                if not enforce_unique:
                    break
        if len(centers) > 1:
            raise UniquenessViolation(
                f"quadruple {quad} admits two centers {centers[0]} and {centers[1]} "
                "although the four-point check passed"
            )
        if not centers:
            witnesses.append(
                Witness(
                    "condition_i",
                    "no_center_vertex",
                    quadruple=quad,
                    best_l=_best_failing(grid, eq, quad, n, _center_score),
                )
            )
            if early_exit:
                break
    witnesses.sort(key=_witness_key)
    return CheckFragment(ok=not witnesses, witnesses=tuple(witnesses), caveat=caveat)


def _median_holds(grid, eq, triple, l) -> bool:
    u, v, w = triple
    if not (
        eq(grid[u][v], grid[u][l] + grid[v][l])
        and eq(grid[u][w], grid[u][l] + grid[w][l])
        and eq(grid[v][w], grid[v][l] + grid[w][l])
    ):
        return False
    x1 = grid[u][v] + grid[w][l]
    x2 = grid[u][w] + grid[v][l]
    x3 = grid[u][l] + grid[v][w]
    return eq(x1, x2) and eq(x2, x3) and eq(x1, x3)


def _median_score(grid, eq, triple, l) -> int:
    u, v, w = triple
    x1 = grid[u][v] + grid[w][l]
    x2 = grid[u][w] + grid[v][l]
    x3 = grid[u][l] + grid[v][w]
    checks = (
        eq(grid[u][v], grid[u][l] + grid[v][l]),
        eq(grid[u][w], grid[u][l] + grid[w][l]),
        eq(grid[v][w], grid[v][l] + grid[w][l]),
        eq(x1, x2),
        eq(x2, x3),
    )
    return sum(checks)


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
    if four_point_ok is None:
        four_point_ok = four_point_check(m, early_exit=True).ok
    caveat = not four_point_ok
    grid, eq, _ = m.comparison_view()
    n = m.n
    witnesses = []

    def scan_triple(quad, triple) -> bool:
        for l in range(1, n + 1):
            if _median_holds(grid, eq, triple, l):
                return True
        witnesses.append(
            Witness(
                "condition_ii",
                "no_median_vertex",
                quadruple=quad,
                triple=triple,
                best_l=_best_failing(grid, eq, triple, n, _median_score),
            )
        )
        return False

    if n == 3:
        scan_triple(None, (1, 2, 3))
    done = False
    for quad in combinations(range(1, n + 1), 4):
        i, j, k, t = quad
        sums = (
            grid[i][j] + grid[k][t],
            grid[i][k] + grid[j][t],
            grid[i][t] + grid[j][k],
        )
        kind, _ = _classify_sums(sums, eq)
        if kind is not QuadrupleKind.TWO_EQUAL_MAX:
            continue
        for triple in combinations(quad, 3):
            if not scan_triple(quad, triple) and early_exit:
                done = True
                break
        if done:
            break
    witnesses.sort(key=_witness_key)
    return CheckFragment(ok=not witnesses, witnesses=tuple(witnesses), caveat=caveat)


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

    Under the exact policy a matrix that `realizing_tree` realizes passes all
    three checks without witnesses, so that report is returned after the
    O(n^2) construction. Every other input, and every float-policy input,
    pays for the O(n^5) scan that finds the witnesses.
    """
    if m.n < 3:
        raise TooSmall(f"realizability checks need n >= 3, got n = {m.n}")
    if isinstance(m.policy, ExactPolicy) and realizing_tree(m) is not None:
        ok = CheckFragment(ok=True, witnesses=())
        return CheckReport(four_point=ok, condition_i=ok, condition_ii=ok)
    fp = four_point_check(m, early_exit=early_exit)
    ci = condition_i_check(m, four_point_ok=fp.ok, early_exit=early_exit)
    cii = condition_ii_check(m, four_point_ok=fp.ok, early_exit=early_exit)
    return CheckReport(four_point=fp, condition_i=ci, condition_ii=cii)
