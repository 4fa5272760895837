"""Ground truth at desk scale: decode Prüfer sequences, count the
exact-vertex realizations of a matrix over every labeled tree topology, and
generate random weighted trees for property tests.

Edge weights on a fixed topology are forced (adjacent vertices' path is the
single edge between them), so realization per topology is just a consistency
check, no solving involved. The census grows every topology point by
point, breadth first from point 1, and tests each path sum once, when the
later of its two points joins; a failing sum drops every topology that
extends the tree grown so far.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import DissimilarityMatrix, Edge, WeightedTree, _is_int, dump_json
from .errors import BadRange, BadSequence, TooLarge
from .numeric import _INT_LIMIT, _MAX_DIGITS, EXACT, NUMBER_ERRORS, ExactPolicy, Policy, echo

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "RealizationCensus",
    "prufer_decode",
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
    if not _is_int(n) or n < 2:
        raise BadSequence(f"decoding needs n >= 2, got {n!r}")
    entries = tuple(seq)
    if len(entries) != n - 2:
        raise BadSequence(f"sequence has length {len(entries)}, expected {n - 2}")
    for entry in entries:
        if not _is_int(entry) or not 1 <= entry <= n:
            raise BadSequence(f"sequence entry {entry!r} outside 1..{n}")
    return tuple(sorted((min(u, v), max(u, v)) for u, v in _decode(entries, n)))


def _decode(entries, n: int) -> list[tuple[int, int]]:
    """Prüfer decoding in linear time, for a sequence known to be valid.

    Returns the edges (leaf, x) in decode order. Every vertex below the
    pointer `ptr` that was ever a leaf has been removed, so a vertex below
    it that turns into a leaf is at once the smallest leaf; otherwise the
    pointer moves up to the next leaf. Vertex n is never the smallest leaf
    while another remains, so the last edge is (leaf, n).
    """
    degree = [1] * (n + 1)
    for x in entries:
        degree[x] += 1
    leaf = ptr = degree.index(1, 1)
    edges = []
    for x in entries:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = ptr = degree.index(1, ptr + 1)
    edges.append((leaf, n))
    return edges


def _outward(adjacency, root: int, entry: int) -> list[tuple[int, int]]:
    """The component of `root` in the forest `adjacency` as (vertex,
    predecessor) pairs, each after its predecessor, walking outward from
    `root`; `root` comes first, with `entry`, across a new edge, as its
    predecessor."""
    walk = [(root, entry)]
    for x, pred in walk:  # the list grows while it is read
        for y in adjacency[x]:
            if y != pred:
                walk.append((y, x))
    return walk


def _attaches(grid, eq, dist, adjacency, u: int, c: int) -> bool:
    """True iff, with c joined to the grown tree `adjacency` by the edge
    (u, c), every pair (c, y) with y in the tree has path sums equal to its
    entries in both directions.

    Each sum is built one edge at a time outward from its source, as a walk
    over the finished tree would build it: dist[c][y] along the walk outward
    from u, and dist[y][c] as dist[y][u] + d(u, c). Both are kept in
    `dist`."""
    row, target, step = dist[c], grid[c], grid[u][c]
    for y, pred in _outward(adjacency, u, c):
        row[y] = row[pred] + grid[pred][y]
        back = dist[y][u] + step
        dist[y][c] = back
        if not (eq(row[y], target[y]) and eq(back, grid[y][c])):
            return False
    return True


def count_realizations(
    m: DissimilarityMatrix, cap: int = DEFAULT_ENUMERATION_CAP
) -> RealizationCensus:
    """Census over all n^(n-2) labeled topologies (1 by convention for n <= 2).

    Every labeled tree is grown once, breadth first from point 1: the
    search pops the queue's head u and decides, for each label not yet in
    the tree and in increasing order, whether it is a child of u; each child
    joins the queue. A tree is done when every label is in it, and a branch
    dies when the queue runs out first. When a label c joins through u,
    every pair of c and a point of the grown tree is tested in both
    directions, and a failing one drops every tree that extends the grown
    one. So every ordered pair of a tree is tested once, with the sums and
    comparison of the reference decider in `tests/test_oracle.py` (`_fits`),
    and every topology is decided by the path-sum definition. The search
    keeps its own stack and never recurses. A realization's weights are
    read off the matrix's `rows` view. The census keeps nothing across
    calls. Raises TooLarge above the cap. The realization list is sorted by
    edge set so identical inputs yield identical censuses.
    """
    n = m.n
    if n > cap:
        raise TooLarge(f"n = {n} exceeds the enumeration cap {cap}")
    if n == 1:
        return RealizationCensus(1, 1, (WeightedTree.from_edges(1, [], m.policy),))
    grid, eq, _ = m.comparison_view()
    rows = m.rows
    adjacency: list[list[int]] = [[] for _ in range(n + 1)]
    dist = [[0] * (n + 1) for _ in range(n + 1)]
    parent = [0] * (n + 1)
    grown = [False] * (n + 1)
    grown[1] = True
    queue = [1]  # the grown tree's points in breadth-first order
    head, c = 0, 1  # queue[head] decides the free labels above c
    found = []
    while True:
        c += 1
        while c <= n and grown[c]:
            c += 1
        if c <= n:
            u = queue[head]
            if _attaches(grid, eq, dist, adjacency, u, c):
                parent[c], grown[c] = u, True
                queue.append(c)
                adjacency[u].append(c)
                adjacency[c].append(u)
            continue
        head += 1
        if head < len(queue):
            c = 1
            continue
        if len(queue) == n:
            edges = (Edge(min(a, b), max(a, b), rows[a][b]) for a, b in enumerate(parent[2:], 2))
            found.append(WeightedTree(n, tuple(sorted(edges)), m.policy))
        if len(queue) == 1:
            break
        # Undo the last join, a leaf, and go on with it not a child of its parent.
        c = queue.pop()
        u = parent[c]
        grown[c] = False
        adjacency[u].pop()
        adjacency[c].pop()
        head = queue.index(u)
    found.sort(key=lambda t: t.edges)  # two trees first differ in an edge's labels
    return RealizationCensus(n, n ** (n - 2), tuple(found))


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
    if not _is_int(n) or n < 1:
        raise BadRange(f"vertex count must be a positive integer, got {echo(n)}")
    try:
        low = policy.coerce(weight_low)
        high = policy.coerce(weight_high)
    except NUMBER_ERRORS as exc:
        raise BadRange(f"bad weight bound: {exc}")
    if low <= 0:
        raise BadRange(f"weight_low must be positive, got {echo(weight_low)}")
    bounds = f"[{echo(weight_low)}, {echo(weight_high)}]"
    if policy.lt(high, low):
        raise BadRange(f"weight range {bounds} is empty")
    try:
        k_min = max(1, math.ceil(low * WEIGHT_GRID_DENOMINATOR))
        k_max = math.floor(high * WEIGHT_GRID_DENOMINATOR)
    except OverflowError:  # a float bound times the grid is infinite
        raise BadRange(f"weight range {bounds} exceeds the float range")
    if k_min > k_max:
        raise BadRange(f"no multiple of 1/{WEIGHT_GRID_DENOMINATOR} inside {bounds}")
    if isinstance(policy, ExactPolicy) and k_max * max(1, n - 1) >= _INT_LIMIT:
        # In thousandths, every path weight must read back as an exact number.
        bound = echo(weight_high)
        raise BadRange(f"weight_high {bound} allows path weights beyond {_MAX_DIGITS} digits")
    rng = random.Random(seed)
    if n == 1:
        return WeightedTree.from_edges(1, [], policy)
    topology = prufer_decode([rng.randint(1, n) for _ in range(n - 2)], n)
    # The policy coerces each k/1000; under float that is k / 1000 correctly rounded.
    denominator = WEIGHT_GRID_DENOMINATOR
    edges = [(u, v, Fraction(rng.randint(k_min, k_max), denominator)) for u, v in topology]
    return WeightedTree.from_edges(n, edges, policy)
