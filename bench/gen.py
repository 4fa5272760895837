"""Seeded input generator for the benchmark, independent of the program.

Every case is a random labeled tree (uniform Prüfer sequence) with edge
weights drawn from the 1/1000 grid in [0.001, 10], its matrix of path sums,
and optionally the same matrix with one random pair moved by 1/1000. All
values are kept as integer thousandths, so the benchmark's own checks are
exact. Each case has its own `random.Random`, keyed by (seed, n, index), so
the checker can re-derive the expected data of any case without reading
files, and workloads that share n and seed share their trees.
"""

from __future__ import annotations

import heapq
import json
import os
import random
from dataclasses import dataclass

GRID = 1000
K_MIN, K_MAX = 1, 10 * GRID


@dataclass(frozen=True)
class Workload:
    n: int
    mode: str  # the CLI's --mode
    perturb: bool
    commands: tuple[str, ...]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "realizable": Workload(24, "exact", False, ("check", "reconstruct", "weights")),
    "perturbed": Workload(24, "exact", True, ("check", "reconstruct")),
    "float": Workload(16, "float", False, ("check", "reconstruct")),
    "small-census": Workload(7, "exact", False, ("check", "reconstruct", "weights", "oracle")),
}


def half_n(n: int) -> int:
    """The smaller size of the traced scaling pass."""
    return max(4, n // 2)


@dataclass(frozen=True)
class Case:
    n: int
    edges: tuple[tuple[int, int, int], ...]  # (u, v, weight) with u < v, sorted
    d: tuple[tuple[int, ...], ...]  # (n+1) x (n+1), row and column 0 unused
    moved: tuple[int, int, int] | None = None  # (i, j, delta) of the perturbation


def prufer_tree(seq, n: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence over 1..n into sorted (u, v) edges, u < v."""
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return sorted(edges)


def path_sums(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n + 1)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    d = [[0] * (n + 1) for _ in range(n + 1)]
    for src in range(1, n + 1):
        row = d[src]
        seen = {src}
        stack = [src]
        while stack:
            here = stack.pop()
            for nxt, w in adj[here]:
                if nxt not in seen:
                    seen.add(nxt)
                    row[nxt] = row[here] + w
                    stack.append(nxt)
    return d


def make_case(seed: int, n: int, index, perturb: bool = False) -> Case:
    rng = random.Random(f"tree:{seed}:{n}:{index}")
    topology = prufer_tree([rng.randint(1, n) for _ in range(n - 2)], n)
    edges = tuple((u, v, rng.randint(K_MIN, K_MAX)) for u, v in topology)
    d = path_sums(n, edges)
    moved = None
    if perturb:
        prng = random.Random(f"perturb:{seed}:{n}:{index}")
        i, j = sorted(prng.sample(range(1, n + 1), 2))
        delta = prng.choice((-1, 1))
        if d[i][j] + delta <= 0:  # keep the input valid: distances stay positive
            delta = 1
        d[i][j] += delta
        d[j][i] += delta
        moved = (i, j, delta)
    return Case(n, edges, tuple(tuple(r) for r in d), moved)


def fmt(k: int) -> str:
    """Integer thousandths as a plain decimal string, e.g. 1500 -> '1.500'."""
    return f"{k // GRID}.{k % GRID:03d}"


def matrix_csv(case: Case) -> str:
    n = case.n
    return "\n".join(
        ",".join(fmt(case.d[i][j]) for j in range(1, n + 1)) for i in range(1, n + 1)
    ) + "\n"


def tree_json(case: Case) -> str:
    return json.dumps(
        {"n": case.n, "edges": [{"u": u, "v": v, "w": fmt(w)} for u, v, w in case.edges]}
    )


def input_path(directory: str, command: str, index) -> str:
    """The file a command reads for a case: the tree for `weights`, else the matrix."""
    return os.path.join(directory, f"t{index}.json" if command == "weights" else f"m{index}.csv")


def write_inputs(wl: Workload, seed: int, n: int, indices, directory: str) -> None:
    for index in indices:
        case = make_case(seed, n, index, wl.perturb)
        texts = {"check": matrix_csv(case)}
        if "weights" in wl.commands:
            texts["weights"] = tree_json(case)
        for command, text in texts.items():
            with open(input_path(directory, command, index), "w") as handle:
                handle.write(text)
