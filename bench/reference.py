"""The benchmark's own reference for `treexact check --format json`.

It re-derives, from the generator's integer matrix, the report the program
printed at the commit that introduced this benchmark: the three checks, every
witness with its `best_l`, the ordering and the JSON layout. It shares no code
with the program, and it finds centers and medians with between-sets (the
bitmask of every l with d(u,l) + d(l,v) = d(u,v)), so it costs O(n^4) instead
of the program's O(n^5). On integers the median's companion sum identities
follow from its three factorizations, so a non-empty mask is the whole test.

It also counts quadruples by pair-sum pattern for the `input.quad.*` shares.
"""

from __future__ import annotations

import json
from itertools import combinations

ALL_THREE_EQUAL, TWO_EQUAL_MAX, VIOLATION = "all_three_equal", "two_equal_max", "violation"
_RANK = {"four_point": 0, "condition_i": 1, "condition_ii": 2}


def _between(n, d):
    b = [[0] * (n + 1) for _ in range(n + 1)]
    for u in range(1, n + 1):
        du = d[u]
        for v in range(u, n + 1):
            duv = du[v]
            dv = d[v]
            mask = 0
            for l in range(1, n + 1):
                if du[l] + dv[l] == duv:
                    mask |= 1 << l
            b[u][v] = b[v][u] = mask
    return b


def _kind(d, i, j, k, t):
    sums = (d[i][j] + d[k][t], d[i][k] + d[j][t], d[i][t] + d[j][k])
    hits = sums.count(max(sums))
    return ALL_THREE_EQUAL if hits == 3 else TWO_EQUAL_MAX if hits == 2 else VIOLATION


def _first_best(n, score):
    """The smallest l with the highest score, as the program's scan picks it."""
    best, best_hits = 1, -1
    for l in range(1, n + 1):
        hits = score(l)
        if hits > best_hits:
            best, best_hits = l, hits
    return best


def _witness(condition, code, quadruple=None, triple=None, best_l=None):
    return {
        "condition": condition,
        "code": code,
        "quadruple": list(quadruple) if quadruple else None,
        "triple": list(triple) if triple else None,
        "best_l": best_l,
    }


def _key(w):
    return (_RANK[w["condition"]], tuple(w["quadruple"] or ()), tuple(w["triple"] or ()))


def check_report(d) -> tuple[dict, dict]:
    """Return (the check report as a dict, quadruple counts by kind) for the
    integer matrix `d` of size (n+1) x (n+1), n >= 4."""
    n = len(d) - 1
    b = _between(n, d)
    kinds = {ALL_THREE_EQUAL: 0, TWO_EQUAL_MAX: 0, VIOLATION: 0}
    four_point, cond_i, cond_ii = [], [], []
    medians = {}
    for quad in combinations(range(1, n + 1), 4):
        kind = _kind(d, *quad)
        kinds[kind] += 1
        if kind == VIOLATION:
            four_point.append(_witness("four_point", "quadruple_max_once", quadruple=quad))
        elif kind == ALL_THREE_EQUAL:
            masks = [b[u][v] for u, v in combinations(quad, 2)]
            common = masks[0] & masks[1] & masks[2] & masks[3] & masks[4] & masks[5]
            if not common:
                best = _first_best(n, lambda l: sum(m >> l & 1 for m in masks))
                cond_i.append(
                    _witness("condition_i", "no_center_vertex", quadruple=quad, best_l=best)
                )
        else:
            for triple in combinations(quad, 3):
                if triple not in medians:
                    u, v, w = triple
                    medians[triple] = b[u][v] & b[u][w] & b[v][w]
                if not medians[triple]:
                    best = _first_best(n, lambda l: _median_score(d, triple, l))
                    cond_ii.append(
                        _witness(
                            "condition_ii", "no_median_vertex",
                            quadruple=quad, triple=triple, best_l=best,
                        )
                    )
    for i, j, k in combinations(range(1, n + 1), 3):
        if (
            d[i][j] + d[j][k] < d[i][k]
            or d[i][k] + d[k][j] < d[i][j]
            or d[j][i] + d[i][k] < d[j][k]
        ):
            four_point.append(_witness("four_point", "triangle_violation", triple=(i, j, k)))
    fp_ok, ci_ok, cii_ok = not four_point, not cond_i, not cond_ii
    report = {
        "realizable": fp_ok and ci_ok and cii_ok,
        "four_point": {"ok": fp_ok},
        "condition_i": {"ok": ci_ok, "caveat": not fp_ok},
        "condition_ii": {"ok": cii_ok, "caveat": not fp_ok},
        "witnesses": sorted(four_point + cond_i + cond_ii, key=_key),
    }
    return report, kinds


def _median_score(d, triple, l):
    u, v, w = triple
    x1 = d[u][v] + d[w][l]
    x2 = d[u][w] + d[v][l]
    x3 = d[u][l] + d[v][w]
    return (
        (d[u][v] == d[u][l] + d[v][l])
        + (d[u][w] == d[u][l] + d[w][l])
        + (d[v][w] == d[v][l] + d[w][l])
        + (x1 == x2)
        + (x2 == x3)
    )


def render(report: dict) -> str:
    """The report as `check --format json` prints it, trailing newline included."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


ALL_OK = render(
    {
        "realizable": True,
        "four_point": {"ok": True},
        "condition_i": {"ok": True, "caveat": False},
        "condition_ii": {"ok": True, "caveat": False},
        "witnesses": [],
    }
)
