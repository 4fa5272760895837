"""Build the unique positive-weighted tree on exactly {1..n} realizing a
dissimilarity matrix, or fail with a witness.

In a realizing tree every edge (u, v) weighs d(u, v), and every other pair
is strictly heavier than each edge on its path, so the tree is the unique
minimum spanning tree of d (Hakimi and Yau, 1965). `reconstruct` grows that
tree by Prim in O(n^2) and checks each entry against the tree as it grows,
so one pass both decides realizability and builds the tree, under either
numeric policy. Prim runs to the end and reports the first mismatch; the
same pass is `check_all`'s verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import DissimilarityMatrix, Edge, WeightedTree, dump_json

__all__ = ["UnrealizableWitness", "reconstruct"]


@dataclass(frozen=True)
class UnrealizableWitness:
    """Where reconstruction failed and on which indices.

    `reconstruct` reports stage "support_verification" with indices (v, p, x):
    v joined the tree through p, and d(v, x) disagrees with d(v, p) plus the
    tree's path weight from p to x.
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
        return dump_json(self.to_json_dict())


class _Prim(NamedTuple):
    edges: tuple  # (v, p, grid[v][p]) in join order: v joined through p, which came earlier
    mismatch: tuple[int, int, int] | None  # the first (v, p, x), in Prim order
    path: list  # path[x][l]: T(x, l), the path weight in the tree; grid[x] while T(x, .) = d(x, .)


def _prim(m: DissimilarityMatrix) -> _Prim:
    """Grow the whole minimum spanning tree by Prim from vertex 1 and compare
    every entry with the tree's path weight. O(n^2).

    When v joins through p, v is a leaf of the grown subtree, so its path to
    every x already in the subtree passes through p: the tree's path weight
    is T(v, x) = d(v, p) + T(p, x). Each pair is compared once, when its
    later endpoint joins, so the mismatches are exactly the pairs where d
    differs from the tree. Prim runs to the end past a mismatch, so the
    record holds T for every pair. T's row of a label is the grid's own row
    until a sum differs from its entry (a plain `!=`), and a list of its own
    from then on: a realizable exact matrix stores no sum.
    """
    grid, eq, _ = m.comparison_view()
    n = m.n
    joined = [1]
    outside = list(range(2, n + 1))
    key = list(grid[1])  # key[x]: least distance from x to the grown subtree
    parent = [1] * (n + 1)
    path = list(grid)
    edges, mismatch = [], None
    while outside:
        v = min(outside, key=key.__getitem__)
        outside.remove(v)
        p = parent[v]
        row_v, path_p = grid[v], path[p]
        path_v = row_v
        d_vp = row_v[p]
        for x in joined:
            through_p = d_vp + path_p[x]
            if through_p != row_v[x]:
                if mismatch is None and not eq(row_v[x], through_p):
                    mismatch = v, p, x
                if path_v is row_v:
                    path_v = path[v] = list(row_v)
                path_x = path[x]
                if path_x is grid[x]:
                    path_x = path[x] = list(path_x)
                path_v[x] = path_x[v] = through_p
        joined.append(v)
        edges.append((v, p, d_vp))
        for x in outside:
            if row_v[x] < key[x]:
                key[x] = row_v[x]
                parent[x] = v
    return _Prim(tuple(edges), mismatch, path)


def reconstruct(m: DissimilarityMatrix) -> WeightedTree | UnrealizableWitness:
    """Return the unique realizing tree, or a witness explaining the failure.
    O(n^2).

    Prim grows the minimum spanning tree and checks every entry against it
    (`_prim`). The first mismatch in Prim order proves d unrealizable and is
    the witness. So a returned tree reproduces every entry: exactly under the
    exact policy, whose comparison grid is integers, and within epsilon under
    the float policy.
    """
    edges, mismatch = _prim(m)[:2]
    if mismatch is not None:
        v, p, x = mismatch
        return UnrealizableWitness(
            "support_verification",
            mismatch,
            f"d({v},{x}) != d({v},{p}) + d({p},{x}); "
            f"no tree on exactly the points can attach {v} through {p}",
        )
    # Prim's edges span 1..n with positive weights: the trusted constructor.
    tree = sorted(
        Edge(min(v, p), max(v, p), w if m.scale is None else Fraction(w, m.scale))
        for v, p, w in edges
    )
    return WeightedTree(m.n, tuple(tree), m.policy)
