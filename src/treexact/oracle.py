"""Ground truth at desk scale: enumerate every labeled tree topology through
Prüfer sequences, count exact-vertex realizations of a matrix, and generate
random weighted trees for property tests.

Edge weights on a fixed topology are forced (adjacent vertices' path is the
single edge between them), so realization per topology is just a consistency
check, no solving involved.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import product
from fractions import Fraction

from .core import DissimilarityMatrix, WeightedTree, dump_json
from .errors import BadRange, BadSequence, InvalidTree, TooLarge
from .numeric import EXACT, Policy

__all__ = [
    "RealizationCensus",
    "prufer_decode",
    "realize_on_topology",
    "count_realizations",
    "random_weighted_tree",
]

DEFAULT_ENUMERATION_CAP = 8

WEIGHT_GRID_DENOMINATOR = 1000


@dataclass(frozen=True)
class RealizationCensus:
    """Outcome of enumerating all topologies against one matrix."""

    n: int
    topologies_examined: int
    realizations: tuple[WeightedTree, ...]

    @property
    def count(self) -> int:
        return len(self.realizations)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "topologies": self.topologies_examined,
            "count": self.count,
            "realizations": [t.to_json_dict() for t in self.realizations],
        }

    def to_json(self) -> str:
        return dump_json(self.to_json_dict())


def prufer_decode(seq, n: int) -> tuple[tuple[int, int], ...]:
    """Decode a length n-2 sequence over {1..n} into its labeled tree.

    Standard decoding: repeatedly join the smallest-labeled current leaf to
    the head of the remaining sequence. Returns the edge set sorted with
    u < v per edge.
    """
    if not isinstance(n, int) or n < 2:
        raise BadSequence(f"decoding needs n >= 2, got {n!r}")
    entries = tuple(seq)
    if len(entries) != n - 2:
        raise BadSequence(f"sequence has length {len(entries)}, expected {n - 2}")
    for entry in entries:
        if not isinstance(entry, int) or not 1 <= entry <= n:
            raise BadSequence(f"sequence entry {entry!r} outside 1..{n}")
    degree = [1] * (n + 1)
    for x in entries:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapify(leaves)
    edges = []
    for x in entries:
        leaf = heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    u = heappop(leaves)
    v = heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return tuple(sorted(edges))


def realize_on_topology(m: DissimilarityMatrix, topology) -> WeightedTree | None:
    """Weight a fixed topology by the matrix and keep it iff it reproduces
    every pairwise value. Returns None when the topology cannot realize m."""
    n = m.n
    edges = [tuple(e) for e in topology]
    if len(edges) != n - 1:
        raise InvalidTree(f"{len(edges)} edges for {n} vertices, expected {n - 1}")
    adjacency: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise InvalidTree(f"bad edge ({u},{v}) for a topology on 1..{n}")
        adjacency[u].append(v)
        adjacency[v].append(u)

    grid, eq, _ = m.comparison_view()
    dist = [0] * (n + 1)
    for src in range(1, n + 1):
        seen = 1 << src
        dist[src] = 0
        stack = [src]
        reached = 1
        while stack:
            here = stack.pop()
            dhere = dist[here]
            target = grid[src][here]
            if here != src and not eq(dhere, target):
                return None
            for nxt in adjacency[here]:
                bit = 1 << nxt
                if not seen & bit:
                    seen |= bit
                    dist[nxt] = dhere + grid[here][nxt]
                    stack.append(nxt)
                    reached += 1
        if reached != n:
            raise InvalidTree("topology is not connected")
    return WeightedTree.from_edges(
        n, [(u, v, m.rows[u][v]) for u, v in edges], m.policy
    )


def count_realizations(
    m: DissimilarityMatrix, cap: int = DEFAULT_ENUMERATION_CAP
) -> RealizationCensus:
    """Census over all n^(n-2) labeled topologies (1 by convention for n <= 2).

    Raises TooLarge above the cap. The realization list is sorted by edge set
    so identical inputs yield identical censuses.
    """
    n = m.n
    if n > cap:
        raise TooLarge(f"n = {n} exceeds the enumeration cap {cap}")
    if n == 1:
        return RealizationCensus(1, 1, (WeightedTree.from_edges(1, [], m.policy),))
    found = []
    examined = 0
    for seq in product(range(1, n + 1), repeat=n - 2):
        examined += 1
        tree = realize_on_topology(m, prufer_decode(seq, n))
        if tree is not None:
            found.append(tree)
    found.sort(key=lambda t: tuple((u, v) for u, v, _ in t.edges))
    return RealizationCensus(n, examined, tuple(found))


def random_weighted_tree(
    n: int,
    weight_low,
    weight_high,
    seed: int,
    policy: Policy = EXACT,
) -> WeightedTree:
    """Uniform random labeled topology with i.i.d. grid weights.

    Weights are multiples of 1/1000 inside [weight_low, weight_high], so the
    exact policy round-trips them bit for bit. Output is a deterministic
    function of (n, bounds, seed).
    """
    if not isinstance(n, int) or n < 1:
        raise BadRange(f"vertex count must be a positive integer, got {n!r}")
    try:
        low = policy.coerce(weight_low)
        high = policy.coerce(weight_high)
    except (ValueError, TypeError) as exc:
        raise BadRange(f"bad weight bound: {exc}")
    if low <= 0:
        raise BadRange(f"weight_low must be positive, got {weight_low!r}")
    if policy.lt(high, low):
        raise BadRange(f"weight range [{weight_low!r}, {weight_high!r}] is empty")
    try:
        k_min = max(1, math.ceil(low * WEIGHT_GRID_DENOMINATOR))
        k_max = math.floor(high * WEIGHT_GRID_DENOMINATOR)
    except OverflowError:  # a float bound times the grid is infinite
        raise BadRange(f"weight range [{weight_low!r}, {weight_high!r}] exceeds the float range")
    if k_min > k_max:
        raise BadRange(
            f"no multiple of 1/{WEIGHT_GRID_DENOMINATOR} inside "
            f"[{weight_low!r}, {weight_high!r}]"
        )
    rng = random.Random(seed)
    if n == 1:
        return WeightedTree.from_edges(1, [], policy)
    if n == 2:
        topology = ((1, 2),)
    else:
        topology = prufer_decode([rng.randint(1, n) for _ in range(n - 2)], n)
    # The policy coerces each k/1000; under float that is k / 1000 correctly rounded.
    denominator = WEIGHT_GRID_DENOMINATOR
    edges = [(u, v, Fraction(rng.randint(k_min, k_max), denominator)) for u, v in topology]
    return WeightedTree.from_edges(n, edges, policy)
