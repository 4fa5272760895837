"""Ground truth at desk scale: decode Prüfer sequences, count the
exact-vertex realizations of a matrix over every labeled tree topology, and
generate random weighted trees for property tests.

Edge weights on a fixed topology are forced (adjacent vertices' path is the
single edge between them), so realization per topology is just a consistency
check, no solving involved. The census grows every topology edge by edge
and tests each path sum once, when its path closes; a failing sum drops
every topology that holds the edges chosen so far.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import DissimilarityMatrix, Edge, WeightedTree, _is_int, dump_json
from .errors import BadRange, BadSequence, InvalidTree, TooLarge
from .numeric import _INT_LIMIT, _MAX_DIGITS, EXACT, NUMBER_ERRORS, ExactPolicy, Policy, echo

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
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


def _fits(grid, eq, n: int, edges) -> bool:
    """True iff every path sum of the tree `edges` on 1..n, weighted by
    `grid`, equals the grid entry of its pair under `eq`.

    A DFS from each source accumulates each path sum edge by edge outward
    from the source, so float sums do not depend on the visiting order.
    """
    adjacency: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    dist = [0] * (n + 1)
    for src in range(1, n + 1):
        target = grid[src]
        dist[src] = 0
        seen = [False] * (n + 1)
        seen[src] = True
        stack = [src]
        while stack:
            here = stack.pop()
            dhere = dist[here]
            step = grid[here]
            for nxt in adjacency[here]:
                if not seen[nxt]:
                    seen[nxt] = True
                    dist[nxt] = dhere + step[nxt]
                    if not eq(dist[nxt], target[nxt]):
                        return False
                    stack.append(nxt)
    return True


def realize_on_topology(m: DissimilarityMatrix, topology) -> WeightedTree | None:
    """Weight a fixed topology by the matrix and keep it iff it reproduces
    every pairwise value. Returns None when the topology cannot realize m.

    Raises InvalidTree unless `topology` is the edge set of a tree on 1..n;
    `WeightedTree.from_edges` checks it with unit weights, once.
    """
    unit = []
    for edge in topology:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise InvalidTree(f"edge {edge!r} is not a pair of labels") from None
        unit.append((u, v, 1))
    shape = WeightedTree.from_edges(m.n, unit, m.policy)
    grid, eq, _ = m.comparison_view()
    if not _fits(grid, eq, m.n, [(u, v) for u, v, _ in shape.edges]):
        return None
    rows = m.rows
    return WeightedTree(m.n, tuple(Edge(u, v, rows[u][v]) for u, v, _ in shape.edges), m.policy)


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


def _joins(adjacency, v: int, n: int):
    """Each parent p of v outside v's component, with the walks of both
    sides outward from the new edge (v, p). The forest must be the same
    each time the generator resumes."""
    rest = _outward(adjacency, v, v)[1:]
    inside = {v, *(x for x, _ in rest)}
    for p in range(1, n + 1):
        if p not in inside:
            yield p, [(v, p), *rest], _outward(adjacency, p, v)


def _crosses(grid, eq, dist, sources, walk) -> bool:
    """True iff every pair (a, b), a from `sources` and b from `walk` on
    the other side of a new edge, has a path sum equal to its entry.

    As in `_fits`, each sum is built one edge at a time outward from its
    source a, starting from dist[a][x], a's sum to each x on its own side;
    the sums to b are kept in dist[a][b]."""
    for a, _ in sources:
        row, target = dist[a], grid[a]
        for b, pred in walk:
            row[b] = row[pred] + grid[pred][b]
            if not eq(row[b], target[b]):
                return False
    return True


def count_realizations(
    m: DissimilarityMatrix, cap: int = DEFAULT_ENUMERATION_CAP
) -> RealizationCensus:
    """Census over all n^(n-2) labeled topologies (1 by convention for n <= 2).

    A depth-first search chooses a parent p(v) for v = 2..n in turn, in
    another component of the forest chosen so far; these choices are the
    trees rooted at 1, each once (Cayley). Each new edge tests every path
    sum across it, in both directions, and a failing one rejects every tree
    that holds the forest. So every ordered pair of a tree is tested once,
    with the sum and comparison of `_fits`, and every topology is decided by
    the path-sum definition. A realization's weights are read off the
    matrix's `rows` view. The census keeps nothing across calls. Raises
    TooLarge above the cap. The realization list is sorted by edge set so
    identical inputs yield identical censuses.
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
    found = []
    stack = [_joins(adjacency, 2, n)]  # stack[i] chooses the parent of i + 2
    while stack:
        v = len(stack) + 1
        for p, near, far in stack[-1]:
            if _crosses(grid, eq, dist, near, far) and _crosses(grid, eq, dist, far, near):
                parent[v] = p
                if v == n:
                    edges = (
                        Edge(min(a, b), max(a, b), rows[a][b]) for a, b in enumerate(parent[2:], 2)
                    )
                    found.append(WeightedTree(n, tuple(sorted(edges)), m.policy))
                    continue
                adjacency[v].append(p)
                adjacency[p].append(v)
                stack.append(_joins(adjacency, v + 1, n))
                break
        else:
            stack.pop()
            if stack:
                adjacency[v - 1].pop()
                adjacency[parent[v - 1]].pop()
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
