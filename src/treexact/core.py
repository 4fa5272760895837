"""Fundamental value types and operations: dissimilarity matrices, weighted
trees, parsing, path weights, and structural equality.

Vertex labels are 1-based throughout. Both value types are immutable after
construction and every operation here is a pure function, so concurrent read
access is safe.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence, Set
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import floordiv, getitem, itemgetter, mul
from typing import NamedTuple

from .errors import (
    InvalidMatrix, InvalidTree, MalformedInput, PolicyMismatch, TooLarge, UnknownVertex,
)
from .numeric import (
    _MAX_DIGITS, _MAX_GRID_BITS, _PLAIN_DECIMAL, EXACT, NUMBER_ERRORS, ExactPolicy, Policy,
    Scalar, _scaled_texts, echo,
)

__all__ = [
    "Edge",
    "DissimilarityMatrix",
    "WeightedTree",
    "parse_matrix",
    "parse_tree",
    "path_weight",
    "all_pairs_weights",
    "trees_equal",
    "tree_to_dot",
]


class Edge(NamedTuple):
    u: int
    v: int
    w: Scalar


def _is_int(value) -> bool:
    """True for an int that is not a bool (JSON `true` must not count as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_label(label: int, n: int) -> None:
    if not _is_int(label) or not 1 <= label <= n:
        raise UnknownVertex(label, n)


def _bad_entry(cell, exc: Exception, row: int, col: int) -> MalformedInput:
    """The error for a cell the policy cannot read. It names the literal
    once: most readers' reasons echo it already."""
    shown, reason = echo(cell), str(exc)
    message = f"bad entry: {reason}" if shown in reason else f"bad entry {shown}: {reason}"
    return MalformedInput(message, row=row, col=col)


def _read_cells(raw_rows, n: int, read) -> list[list]:
    """Every cell of an n x n nested sequence read by `read`, in row-major
    order, so that the first short or long row or unreadable number raises at
    its position. Each distinct str or int is read once, so a mirror cell and
    a repeated value share one object. Only those two types are keys, and no
    str equals an int: `True == 1 == 1.0` hash alike, yet must be read apart."""
    cells = []
    memo = {}
    for i, row in enumerate(raw_rows, start=1):
        # A string, mapping or set would be read by its characters, keys or
        # in no fixed order. The abstract classes are tested only off the
        # common list and tuple rows: they cost ~1 us a row.
        if not isinstance(row, (list, tuple)) and (
            isinstance(row, (str, bytes, Mapping, Set)) or not isinstance(row, Iterable)
        ):
            raise InvalidMatrix(f"row {i} is not a sequence of entries", row=i)
        row = list(row)
        if len(row) != n:
            raise InvalidMatrix(f"row {i} has {len(row)} entries, expected {n}", row=i)
        for j, cell in enumerate(row):
            try:
                if type(cell) is str or type(cell) is int:
                    value = memo.get(cell)
                    if value is None:
                        value = memo[cell] = read(cell)
                else:
                    value = read(cell)
            except NUMBER_ERRORS as exc:
                raise _bad_entry(cell, exc, i, j + 1)
            row[j] = value
        cells.append(row)
    return cells


def _exact_ratio(cell) -> tuple[int, int]:
    """A cell's exact value as (numerator, denominator) in lowest terms. A
    pair of ints hashes in C; a `Fraction` hashes in Python."""
    value = EXACT.coerce(cell)
    return value.numerator, value.denominator


def _exact_cells(raw_rows, n: int) -> tuple[list[list[int]], int]:
    """The 0-based rows of an n x n nested sequence of exact cells, lifted to
    integers over the least scale that puts every cell on them, and that
    scale; `_canonical` checks them. `_read_cells` reads each cell as a pair
    in lowest terms, and over the lcm of the denominators no factor is common
    to the scale and every lifted value. That lcm grows with the number of
    distinct denominators, so the grid is refused as TooLarge once its bits
    would pass _MAX_GRID_BITS, before any value is lifted."""
    raw_rows = _read_cells(raw_rows, n, _exact_ratio)
    ratios = set().union(*raw_rows)
    most = _MAX_GRID_BITS // len(ratios)
    scale = 1
    for den in {den for _, den in ratios}:
        scale = math.lcm(scale, den)
        if scale.bit_length() > most:
            raise TooLarge(
                f"the {len(ratios)} distinct values of the matrix over one denominator "
                f"exceed the {_MAX_GRID_BITS}-bit limit of the exact grid"
            )
    lifted = {(num, den): num * (scale // den) for num, den in ratios}
    return [list(map(lifted.__getitem__, row)) for row in raw_rows], scale


# The only bytes of a CSV that `_csv_matrix` reads: signs, spaces, exponents,
# other line breaks and every other literal go to the per-cell reader.
_CSV_BYTES = b"0123456789.,\n"
# Writes every digit as 0: a plain decimal keeps its shape.
_DIGITS_AS_ZERO = str.maketrans("123456789", "000000000")


def _csv_matrix(text: str, policy: Policy) -> "DissimilarityMatrix | None":
    """The matrix of a CSV of n lines of n unsigned plain decimals whose
    mirror cells are the same text, with a zero diagonal and positive cells
    off it; else None, and the per-cell reader reads it. Each line's cells
    left of the diagonal are compared in C with the column above them; then
    only the diagonal and upper triangle are read, by `float`, or by `int`
    with the points dropped (lifted to the most places k after a shape check
    when the text does not show one places for all). Each grid row is built
    from those values, so mirror entries share one number. Exact cells have
    at most _MAX_DIGITS characters, and n^2 times the bits of 10**k stays
    within _MAX_GRID_BITS, as the scale is 10**k over its gcd with the values."""
    if not text.isascii() or text.encode().translate(None, _CSV_BYTES):
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    n, exact = len(lines), isinstance(policy, ExactPolicy)
    most, shapes, wide = 0, None, max(map(len, lines), default=0) > _MAX_DIGITS
    if exact and "." in text:  # one point in each cell, with the first cell's places?
        first = _PLAIN_DECIMAL.match(text)
        most = len(first.group(2) or "") if first else 0
        tail, shaped = "." + "0" * most, text.translate(_DIGITS_AS_ZERO)
        ends = shaped.count(tail + ",") + shaped.count(tail + "\n") + shaped.endswith(tail)
        shapes = None if text.count(".") == ends == n * n else set()
    lines.reverse()
    upper = []  # upper[i]: row i's cells from its diagonal on
    for i in range(n):
        line = lines.pop()
        if shapes is not None:
            shapes.update(line.translate(_DIGITS_AS_ZERO).split(","))
        elif exact:
            line = line.replace(".", "")
        cells = line.split(",")
        if len(cells) != n or cells[:i] != list(map(getitem, upper, range(i, 0, -1))):
            return None
        del cells[:i]
        upper.append(cells)
    if shapes:
        if not all(len(s) <= _MAX_DIGITS and _PLAIN_DECIMAL.fullmatch(s) for s in shapes):
            return None
        places = {shape: len(shape.partition(".")[2]) for shape in shapes}
        most = max(places.values())
        lift = {shape: 10 ** (most - k) for shape, k in places.items()}
    elif exact and wide and max(map(len, chain.from_iterable(upper))) > _MAX_DIGITS:
        return None
    if not n or exact and n * n * (10**most).bit_length() > _MAX_GRID_BITS:
        return None
    common = 10**most
    try:
        for i, cells in enumerate(upper):
            if shapes:
                lifts = "\n".join(cells).translate(_DIGITS_AS_ZERO).split("\n")
                cells = map(str.replace, cells, repeat("."), repeat(""))
                cells = map(mul, map(int, cells), map(lift.__getitem__, lifts))
            upper[i] = values = list(map(int if exact else float, cells))
            if common > 1:
                common = math.gcd(common, *values)
    except ValueError:  # an empty cell, or a lone point
        return None
    # No cell is negative, so the diagonal's n zeros must be all of them.
    if any(map(itemgetter(0), upper)) or sum(map(list.count, upper, repeat(0))) != n:
        return None
    if not exact and max(map(max, upper)) == math.inf:
        return None
    if common > 1:
        upper = [list(map(floordiv, values, repeat(common))) for values in upper]
    zero, scale = (0, 10**most // common) if exact else (0.0, None)
    grid = (zero,) * (n + 1), *(
        (zero, *map(getitem, upper, range(i, 0, -1)), zero, *values[1:])
        for i, values in enumerate(upper)
    )
    return DissimilarityMatrix(n, policy, grid, scale)


def _canonical(cells, n: int, eq, zero) -> tuple[tuple, ...]:
    """The one validity test of a matrix read cell by cell, under either policy:
    check its 0-based n x n cells in one row-major pass over the upper triangle,
    raise the first invalid entry, else return its canonical 1-based grid."""
    grid = [[zero] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        row = cells[i - 1]
        if not eq(row[i - 1], zero):
            raise InvalidMatrix("nonzero diagonal entry", row=i, col=i)
        for j in range(i + 1, n + 1):
            x, y = row[j - 1], cells[j - 1][i - 1]
            if x is not y and not eq(x, y):
                raise InvalidMatrix("asymmetric entry", row=i, col=j)
            if x <= 0:
                raise InvalidMatrix("non-positive off-diagonal entry", row=i, col=j)
            grid[i][j] = grid[j][i] = x
    return tuple(tuple(r) for r in grid)


@dataclass(frozen=True, repr=False)
class DissimilarityMatrix:
    """Symmetric positive dissimilarities on labels 1..n with a zero diagonal.

    Under both policies the state is `n`, `policy`, `grid` and `scale`. The
    grid has a dummy 0th row and column, so ``rows[i][j]`` is the
    dissimilarity of labels i and j. Under the float policy the grid is the
    floats, `rows` is the grid and the scale is None. Under the exact policy
    entry (i, j) is grid[i][j] / scale, integers with no factor common to
    all, and `rows` is a view of `Fraction`s built when first read. The
    constructor `DissimilarityMatrix(n, policy, grid, scale)` trusts that the
    grid and scale are canonical; `from_rows`, `from_pairs` and
    `parse_matrix` validate. Instances are immutable.
    """

    n: int
    policy: Policy
    grid: tuple[tuple[Scalar, ...], ...]
    scale: int | None

    def __post_init__(self):
        n, grid = self.n, self.grid
        if len(grid) != n + 1 or any(len(r) != n + 1 for r in grid):
            raise InvalidMatrix(f"internal grid shape does not match n={n}")

    @classmethod
    def from_rows(cls, raw_rows, policy: Policy = EXACT) -> "DissimilarityMatrix":
        """Validate and build from an n x n nested sequence (0-based storage in,
        1-based labels out). Every number error comes before any validity
        error. Rows that are n lists of n strings are read as the lines of a
        CSV by `_csv_matrix` when it can; every other input, and every input
        with an error, is read cell by cell."""
        if not isinstance(raw_rows, Sequence):  # an iterator has no length
            raise InvalidMatrix(f"matrix rows must be a sequence, got {type(raw_rows).__name__}")
        n = len(raw_rows)
        if n < 1:
            raise InvalidMatrix("matrix must have at least one row")
        try:  # a cell with a line break or a comma fails the line or cell count
            square = all(type(row) is list and len(row) == n for row in raw_rows)
            text = "\n".join(map(",".join, raw_rows)) if square else ""
        except TypeError:  # a cell that is not a string
            text = ""
        if text.count("\n") == n - 1 and (matrix := _csv_matrix(text, policy)):
            return matrix
        if isinstance(policy, ExactPolicy):
            (cells, scale), zero = _exact_cells(raw_rows, n), 0
        else:
            cells, scale, zero = _read_cells(raw_rows, n, policy.coerce), None, policy.zero()
        return cls(n, policy, _canonical(cells, n, policy.eq, zero), scale)

    @classmethod
    def from_pairs(cls, n: int, pairs, policy: Policy = EXACT) -> "DissimilarityMatrix":
        """Build from a mapping {(i, j): value} covering every unordered pair."""
        if not _is_int(n):
            raise InvalidMatrix(f"vertex count must be an integer, got {echo(n)}")
        if not isinstance(pairs, Mapping):
            raise InvalidMatrix(f"pairs must be a mapping, got {type(pairs).__name__}")
        values = {}
        for key, value in pairs.items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise InvalidMatrix(f"pair key must be a tuple (i, j), got {echo(key)}")
            i, j = key
            _check_label(i, n)
            _check_label(j, n)
            if i == j:
                raise InvalidMatrix("diagonal pair in pair mapping", row=i, col=j)
            key = (min(i, j), max(i, j))
            try:
                value = policy.coerce(value)
            except NUMBER_ERRORS as exc:
                raise _bad_entry(value, exc, i, j)
            if key in values and not policy.eq(values[key], value):
                raise InvalidMatrix("conflicting values for one pair", row=i, col=j)
            values[key] = value
        # Every key is a pair i < j of labels, so counting them finds a gap
        # before an n x n grid is built.
        if n > 1 and len(values) < n * (n - 1) // 2:
            missing = (
                (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in values
            )
            raise InvalidMatrix(f"missing pairs: {list(islice(missing, 5))}")
        zero = policy.zero()
        grid = [[zero] * n for _ in range(n)]
        for (i, j), value in values.items():
            grid[i - 1][j - 1] = grid[j - 1][i - 1] = value
        return cls.from_rows(grid, policy)

    @cached_property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        """The entries as policy values: the float grid itself, or under the
        exact policy `Fraction`s built from the grid on first read."""
        grid, scale = self.grid, self.scale
        if scale is None:
            return grid
        value = {v: Fraction(v, scale) for v in set().union(*grid)}
        return tuple(tuple(map(value.__getitem__, r)) for r in grid)

    def d(self, i: int, j: int) -> Scalar:
        """Dissimilarity of labels i and j; zero when i == j."""
        _check_label(i, self.n)
        _check_label(j, self.n)
        value, scale = self.grid[i][j], self.scale
        return value if scale is None else Fraction(value, scale)

    def pairs(self) -> Iterator[tuple[int, int, Scalar]]:
        """Yield (i, j, value) for every unordered pair i < j."""
        rows = self.rows
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                yield i, j, rows[i][j]

    def _cell_texts(self) -> list[list[str]]:
        """The n x n entries as the policy writes them."""
        grid, scale = self.grid, self.scale
        if scale is None:
            text = self.policy.format
        else:
            text = _scaled_texts(set().union(*grid), scale).__getitem__
        return [list(map(text, row[1:])) for row in grid[1:]]

    def to_csv(self) -> str:
        return "\n".join(",".join(row) for row in self._cell_texts())

    def to_json_dict(self) -> dict:
        return {"n": self.n, "d": self._cell_texts()}

    def comparison_view(self):
        """Return (grid, eq, lt) for hot loops.

        Under the exact policy the grid is the matrix's integer grid and
        eq/lt are `operator.eq`/`operator.lt`, so sums and comparisons are
        plain int arithmetic that mirrors the rational values exactly. Under
        the float policy the grid is the raw floats and eq/lt apply the
        epsilon rule.
        """
        return self.grid, self.policy.eq, self.policy.lt

    def __repr__(self):
        return f"DissimilarityMatrix(n={self.n}, policy={self.policy.name})"


@dataclass(frozen=True)
class WeightedTree:
    """Tree on vertex set exactly {1..n} with positive edge weights.

    `edges` is canonical: each edge has u < v and the tuple is sorted by
    (u, v). Leaves and vertex set are derived queries. Like
    `DissimilarityMatrix`'s, the constructor trusts its caller: canonical
    `Edge`s of a spanning tree, weighted by positive policy values.
    `from_edges` normalizes and validates.
    """

    n: int
    edges: tuple[Edge, ...]
    policy: Policy = EXACT

    @classmethod
    def from_edges(cls, n: int, edges: Iterable, policy: Policy = EXACT) -> "WeightedTree":
        if not _is_int(n) or n < 1:
            raise InvalidTree(f"vertex count must be a positive integer, got {echo(n)}")
        normalized = []
        for item in edges:
            try:
                u, v, w = item
            except (TypeError, ValueError):
                raise InvalidTree(f"edge {echo(item)} is not a (u, v, w) triple")
            if not _is_int(u) or not _is_int(v):
                raise InvalidTree(f"non-integer endpoint in edge {echo(item)}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InvalidTree(
                    f"edge ({echo(u)},{echo(v)}) has an endpoint outside 1..{echo(n)}"
                )
            if u == v:
                raise InvalidTree(f"loop edge at vertex {echo(u)}")
            try:
                weight = policy.coerce(w)
            except NUMBER_ERRORS as exc:
                raise InvalidTree(f"bad weight on edge ({echo(u)},{echo(v)}): {exc}")
            if weight <= 0:
                raise InvalidTree(f"non-positive weight on edge ({echo(u)},{echo(v)})")
            normalized.append(Edge(min(u, v), max(u, v), weight))
        normalized.sort(key=lambda e: (e.u, e.v))
        if len(normalized) != n - 1:
            raise InvalidTree(
                f"{len(normalized)} edges for {echo(n)} vertices, expected {echo(n - 1)}"
            )
        for prev, cur in zip(normalized, normalized[1:]):
            if (prev.u, prev.v) == (cur.u, cur.v):
                raise InvalidTree(f"parallel edges between {cur.u} and {cur.v}")
        # The walk reaches one new label per step, so n - 1 steps reach all.
        if sum(1 for _ in _walk(_adjacency(n, normalized), 1)) != n - 1:
            raise InvalidTree("edges do not connect all vertices into one tree")
        return cls(n, tuple(normalized), policy)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def leaves(self) -> list[int]:
        degree = [0] * (self.n + 1)
        for u, v, _ in self.edges:
            degree[u] += 1
            degree[v] += 1
        return [v for v in range(1, self.n + 1) if degree[v] == 1]

    def to_json_dict(self) -> dict:
        fmt = self.policy.format
        return {
            "n": self.n,
            "edges": [{"u": u, "v": v, "w": fmt(w)} for u, v, w in self.edges],
        }

    def __repr__(self):
        return f"WeightedTree(n={self.n}, edges={len(self.edges)}, policy={self.policy.name})"


def dump_json(payload: dict) -> str:
    """The JSON layout of every output: two-space indent, sorted keys. These
    are the bytes of `json.dumps(payload, indent=2, sort_keys=True)`, written
    with the C string encoder and one join per container instead of the
    pure-Python indenting encoder. Every key must be a string."""
    return _json_text(payload, "\n")


def _json_text(value, newline: str) -> str:
    """`value` as `dump_json` writes it, its lines after the first indented
    by `newline`."""
    if isinstance(value, str):
        return _quote(value)
    if type(value) is int:
        return int.__repr__(value)
    if not value or not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{_quote(key)}: {_json_text(value[key], inner)}" for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    items = [_quote(item) if type(item) is str else _json_text(item, inner) for item in value]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


# `\s` is what `str.isspace` matches, so this tests the first other
# character without copying the text.
_JSON_START = re.compile(r"\s*\{")


def _load_json(text: str, policy: Policy):
    try:
        return json.loads(text, parse_float=policy.json_parse_float)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}")
    except ValueError as exc:  # a number literal refused by the policy or by int()
        raise MalformedInput(f"bad number in JSON: {exc}")
    except RecursionError:
        raise MalformedInput("invalid JSON: nested too deeply")


def parse_matrix(text: str, *, policy: Policy = EXACT) -> DissimilarityMatrix:
    """Parse CSV or JSON text into a validated DissimilarityMatrix.

    The text is JSON when its first character that `str.isspace` does not
    skip is `{`, and CSV otherwise. JSON is an object ``{"n": int, "d":
    [[...]]}`` whose cells may be numbers or decimal strings; an object
    wrapping the matrix under a "matrix" key (as emitted by the generator
    subcommand) is unwrapped. CSV is n lines of n comma-separated values.
    """
    if _JSON_START.match(text):
        obj = _load_json(text, policy)
        if isinstance(obj, dict) and "d" not in obj and isinstance(obj.get("matrix"), dict):
            obj = obj["matrix"]
        if not isinstance(obj, dict) or "n" not in obj or "d" not in obj:
            raise MalformedInput('matrix JSON must be an object with "n" and "d"')
        n, rows = obj["n"], obj["d"]
        if (
            not _is_int(n)
            or not isinstance(rows, list)
            or len(rows) != n
            or not all(isinstance(row, list) for row in rows)
        ):
            raise MalformedInput('"d" must be an n-row array matching "n"')
        return DissimilarityMatrix.from_rows(rows, policy)
    matrix = _csv_matrix(text, policy)
    if matrix is not None:
        return matrix
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MalformedInput("empty matrix input")
    raw_rows = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            raise MalformedInput("blank line inside matrix", row=i)
        raw_rows.append([cell.strip() for cell in line.split(",")])
    return DissimilarityMatrix.from_rows(raw_rows, policy)


def parse_tree(text: str, policy: Policy = EXACT) -> WeightedTree:
    """Parse tree JSON ``{"n": int, "edges": [{"u","v","w"}, ...]}``."""
    obj = _load_json(text, policy)
    if isinstance(obj, dict) and "edges" not in obj and isinstance(obj.get("tree"), dict):
        obj = obj["tree"]
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise MalformedInput('tree JSON must be an object with "n" and "edges"')
    if not _is_int(obj["n"]) or not isinstance(obj["edges"], list):
        raise MalformedInput('"n" must be an integer and "edges" an array')
    triples = []
    for k, entry in enumerate(obj["edges"]):
        if not isinstance(entry, dict) or not {"u", "v", "w"} <= entry.keys():
            raise MalformedInput(f'edge {k} must be an object with "u", "v", "w"')
        triples.append((entry["u"], entry["v"], entry["w"]))
    return WeightedTree.from_edges(obj["n"], triples, policy)


def _adjacency(n: int, edges) -> list[list[tuple]]:
    """Adjacency lists of labels 1..n from (u, v, w) triples: adj[u] holds
    (v, w) for each edge of u."""
    adj = [[] for _ in range(n + 1)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def _walk(adj, root: int) -> Iterator[tuple[int, int, Scalar]]:
    """Each edge reachable from `root` as (here, nxt, w), nxt one step
    further from `root`, in depth-first order. It visits each label once, so
    it also ends on an edge list with a cycle."""
    seen = [False] * len(adj)
    seen[root] = True
    stack = [root]
    while stack:
        here = stack.pop()
        for nxt, w in adj[here]:
            if not seen[nxt]:
                seen[nxt] = True
                yield here, nxt, w
                stack.append(nxt)


def path_weight(tree: WeightedTree, i: int, j: int) -> Scalar:
    """Total weight of the unique path between i and j; zero when i == j."""
    _check_label(i, tree.n)
    _check_label(j, tree.n)
    total = {i: tree.policy.zero()}
    for here, nxt, w in _walk(_adjacency(tree.n, tree.edges), i):
        total[nxt] = total[here] + w
    return total[j]


def all_pairs_weights(tree: WeightedTree) -> DissimilarityMatrix:
    """Matrix of path weights between every pair of vertices, each summed
    outward from its smaller label.

    Positivity and symmetry hold by construction, so the result always
    satisfies the dissimilarity invariants. Under the exact policy the sums
    are of integers: the edge weights over the lcm of their denominators.
    Under the float policy a path weight beyond the float range raises
    InvalidTree.
    """
    n = tree.n
    if isinstance(tree.policy, ExactPolicy):
        # The weights are in lowest terms, so over the lcm of their
        # denominators they share no factor with it, nor does the grid.
        scale = math.lcm(*(w.denominator for _, _, w in tree.edges))
        edges = [(u, v, w.numerator * (scale // w.denominator)) for u, v, w in tree.edges]
        zero = 0
    else:
        edges, zero, scale = tree.edges, tree.policy.zero(), None
    adj = _adjacency(n, edges)
    grid = [[zero] * (n + 1) for _ in range(n + 1)]
    # Each walk fills its row and column. Walking from n down to 1, the last
    # walk to write a pair is the one from its smaller label.
    for src in range(n, 0, -1):
        row = grid[src]
        for here, nxt, w in _walk(adj, src):
            row[nxt] = grid[nxt][src] = row[here] + w
    grid = tuple(tuple(r) for r in grid)
    if scale is None and not math.isfinite(max(map(max, grid))):
        raise InvalidTree("a path weight of the tree overflows the float range")
    return DissimilarityMatrix(n, tree.policy, grid, scale)


def trees_equal(a: WeightedTree, b: WeightedTree) -> bool:
    """True iff same vertex count and identical edge sets with equal weights."""
    policy = a.policy
    if b.policy != policy:
        raise PolicyMismatch(
            f"cannot mix numeric policies {policy.name!r} and {b.policy.name!r} "
            "in one computation"
        )
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    for ea, eb in zip(a.edges, b.edges):
        if (ea.u, ea.v) != (eb.u, eb.v) or not policy.eq(ea.w, eb.w):
            return False
    return True


def tree_to_dot(tree: WeightedTree) -> str:
    """Render the tree as an undirected DOT graph with weight labels."""
    lines = ["graph tree {"]
    for v in tree.vertices():
        lines.append(f"  {v};")
    fmt = tree.policy.format
    for u, v, w in tree.edges:
        lines.append(f'  {u} -- {v} [label="{fmt(w)}"];')
    lines.append("}")
    return "\n".join(lines)
