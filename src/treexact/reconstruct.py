"""Build the unique positive-weighted tree on exactly {1..n} realizing a
dissimilarity matrix, or fail with a witness.

Under the exact policy a realizable matrix is decided and built in O(n^2) by
`realizing_tree`: the realizing tree is the unique minimum spanning tree of
the matrix (Hakimi and Yau, 1965), grown by Prim and checked entry by entry
as it grows. The pendant peel below explains the failures, and it is the
only path under the float policy.

The peel removes one pendant vertex per step: it picks a triple (a, b, c)
maximizing d(a,c) + d(b,c) - d(a,b), orients it so the implied pendant edge
weight alpha = (d(a,c) + d(a,b) - d(b,c)) / 2 is positive, certifies the
support neighbor l of a (the argmin of d(a, .), fully verified against every
active vertex), records the edge (a, l), and deactivates a. Three remaining
vertices are solved directly as a path. The assembled tree is verified
entry-wise against the input, so a returned tree always realizes the matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .core import DissimilarityMatrix, WeightedTree, all_pairs_weights
from .errors import (
    NoMiddleVertex,
    PolicyMismatch,
    SupportVerificationFailure,
    TooSmall,
    UnknownVertex,
)
from .numeric import ExactPolicy, Scalar

__all__ = [
    "PendantCertificate",
    "UnrealizableWitness",
    "solve_base3",
    "find_pendant",
    "realizing_tree",
    "reconstruct",
]


@dataclass(frozen=True)
class PendantCertificate:
    """A verified pendant vertex `a`, its support `l`, the pendant edge weight
    `alpha` = d(a, l), and the maximizing pair (b, c) that selected `a`."""

    a: int
    l: int
    alpha: Scalar
    b: int
    c: int


@dataclass(frozen=True)
class UnrealizableWitness:
    """Where reconstruction failed and on which indices.

    stage is one of "condition_check" (no middle vertex among the last three),
    "support_verification" (a pendant identity failed; indices are (a, l, x)),
    or "final_verification" (the assembled tree disagrees with the input on
    the given pair).
    """

    stage: str
    indices: tuple[int, ...]
    message: str

    def to_json_dict(self) -> dict:
        return {
            "realized": False,
            "stage": self.stage,
            "indices": list(self.indices),
            "message": self.message,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _active_tuple(m: DissimilarityMatrix, active) -> tuple[int, ...]:
    out = tuple(sorted(active))
    for label in out:
        if not isinstance(label, int) or not 1 <= label <= m.n:
            raise UnknownVertex(label, m.n)
    if len(set(out)) != len(out):
        raise TooSmall("active vertex set contains duplicates")
    return out


def solve_base3(m: DissimilarityMatrix, active) -> tuple[tuple[int, int, Scalar], ...]:
    """Realize three active vertices as a two-edge path.

    Some relabeling (x, y, z) must satisfy d(x,y) = d(x,z) + d(y,z); the
    middle vertex z is then unique (two middles would force a zero distance).
    Returns the two edges; raises NoMiddleVertex when no relabeling works.
    """
    points = _active_tuple(m, active)
    if len(points) != 3:
        raise TooSmall(f"base case needs exactly 3 active vertices, got {len(points)}")
    x, y, z = points
    grid, eq, _ = m.comparison_view()
    for mid, p, q in ((x, y, z), (y, x, z), (z, x, y)):
        if eq(grid[p][q], grid[p][mid] + grid[q][mid]):
            return (
                (p, mid, m.rows[p][mid]),
                (mid, q, m.rows[mid][q]),
            )
    raise NoMiddleVertex((x, y, z))


def find_pendant(m: DissimilarityMatrix, active) -> PendantCertificate:
    """Select and certify one pendant vertex among the active labels.

    Among all ordered triples of distinct active vertices with positive
    implied pendant weight, the maximizer of d(a,c) + d(b,c) - d(a,b) is
    chosen, ties broken by lexicographically smallest (a, b, c). The support
    l is the closest active vertex to a; certification requires
    d(a,x) = d(a,l) + d(l,x) for every other active x and that d(a,l) equals
    the implied pendant weight. Any failed identity raises
    SupportVerificationFailure, which signals that no tree on exactly the
    active vertices realizes the restriction.
    """
    points = _active_tuple(m, active)
    if len(points) < 3:
        raise TooSmall(f"pendant search needs at least 3 active vertices, got {len(points)}")
    grid, eq, lt = m.comparison_view()

    best_val = None
    best = None  # ordered (a, b, c) with positive pendant weight
    for idx_c, c in enumerate(points):
        row_c = grid[c]
        others = points[:idx_c] + points[idx_c + 1 :]
        for pos, x in enumerate(others):
            row_x = grid[x]
            dxc = row_c[x]
            for y in others[pos + 1 :]:
                val = dxc + row_c[y] - row_x[y]
                if best_val is None or lt(best_val, val):
                    twice_alpha = dxc + row_x[y] - row_c[y]
                    best = (x, y, c) if lt(0, twice_alpha) else (y, x, c)
                    best_val = val
                elif eq(val, best_val):
                    twice_alpha = dxc + row_x[y] - row_c[y]
                    candidate = (x, y, c) if lt(0, twice_alpha) else (y, x, c)
                    if candidate < best:
                        best = candidate
    a, b, c = best

    row_a = grid[a]
    rest = [x for x in points if x != a]
    support = rest[0]
    for x in rest[1:]:
        if lt(row_a[x], row_a[support]):
            support = x
    row_s = grid[support]
    for x in rest:
        if x == support:
            continue
        if not eq(row_a[x], row_a[support] + row_s[x]):
            raise SupportVerificationFailure(
                a,
                support,
                (a, support, x),
                f"d({a},{x}) != d({a},{support}) + d({support},{x}); "
                f"no tree on the active vertices can attach {a}",
            )
    twice_alpha = grid[a][c] + grid[a][b] - grid[b][c]
    if not eq(row_a[support] + row_a[support], twice_alpha):
        raise SupportVerificationFailure(
            a,
            support,
            (a, b, c),
            f"pendant weight from triple ({a},{b},{c}) disagrees with d({a},{support})",
        )
    return PendantCertificate(a=a, l=support, alpha=m.rows[a][support], b=b, c=c)


def realizing_tree(m: DissimilarityMatrix) -> WeightedTree | None:
    """Return the tree on exactly {1..n} realizing an exact-policy matrix, or
    None when no such tree exists. O(n^2).

    In a realizing tree every edge (u, v) weighs d(u, v), and every other
    pair is strictly heavier than each edge on its path, so the tree is the
    unique minimum spanning tree of d. Prim grows it from vertex 1. When v
    joins through p, v is a leaf of the grown subtree, so its path to every
    x already in the subtree passes through p: d(v, x) = d(v, p) + d(p, x)
    must hold, and the first mismatch proves d unrealizable. By induction a
    full pass proves that the tree reproduces every entry. All arithmetic is
    on the integer grid of `comparison_view`, so nothing is rounded.
    """
    if not isinstance(m.policy, ExactPolicy):
        raise PolicyMismatch(
            f"realizing_tree needs the exact policy, got {m.policy.name!r}"
        )
    grid, _, _ = m.comparison_view()
    joined = [1]
    outside = list(range(2, m.n + 1))
    key = list(grid[1])  # key[x]: least distance from x to the grown subtree
    parent = [1] * (m.n + 1)
    edges = []
    while outside:
        v = min(outside, key=key.__getitem__)
        outside.remove(v)
        p = parent[v]
        row_v, row_p = grid[v], grid[p]
        d_vp = row_v[p]
        for x in joined:
            if x != p and row_v[x] != d_vp + row_p[x]:
                return None
        joined.append(v)
        edges.append((v, p, m.rows[v][p]))
        for x in outside:
            if row_v[x] < key[x]:
                key[x] = row_v[x]
                parent[x] = v
    return WeightedTree.from_edges(m.n, edges, m.policy)


def reconstruct(m: DissimilarityMatrix) -> WeightedTree | UnrealizableWitness:
    """Return the unique realizing tree, or a witness explaining the failure.

    Single vertices and single edges are handled directly. Under the exact
    policy a realizable matrix is built by `realizing_tree` in O(n^2). The
    other inputs, and every float-policy input, go through the O(n^4) peel:
    pendants are peeled until three vertices remain, the base path is solved,
    and the assembled tree is verified entry-wise against the input, so a
    returned tree is sound and a failure carries the stage and indices that
    explain it.
    """
    n = m.n
    policy = m.policy
    if n == 1:
        return WeightedTree.from_edges(1, [], policy)
    if n == 2:
        return WeightedTree.from_edges(2, [(1, 2, m.rows[1][2])], policy)
    if isinstance(policy, ExactPolicy):
        tree = realizing_tree(m)
        if tree is not None:
            return tree

    active = list(range(1, n + 1))
    edges: list[tuple[int, int, Scalar]] = []
    try:
        while len(active) > 3:
            cert = find_pendant(m, active)
            edges.append((cert.a, cert.l, cert.alpha))
            active.remove(cert.a)
        edges.extend(solve_base3(m, active))
    except SupportVerificationFailure as exc:
        return UnrealizableWitness("support_verification", exc.detail, str(exc))
    except NoMiddleVertex as exc:
        return UnrealizableWitness("condition_check", exc.triple, str(exc))

    tree = WeightedTree.from_edges(n, edges, policy)
    produced = all_pairs_weights(tree)
    fmt = policy.format
    for i, j in combinations(range(1, n + 1), 2):
        if not policy.eq(produced.rows[i][j], m.rows[i][j]):
            return UnrealizableWitness(
                "final_verification",
                (i, j),
                f"assembled tree gives {fmt(produced.rows[i][j])} for pair ({i},{j}), "
                f"input says {fmt(m.rows[i][j])}",
            )
    return tree
