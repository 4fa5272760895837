"""The three realizability checks, with failure witnesses, run by `check_all`.

A matrix is realizable by a positive-weighted tree on exactly its n labeled
points iff it passes three checks:

* four-point: in every quadruple the largest of the three pair sums is
  attained at least twice, and every triangle inequality holds;
* center condition: every quadruple whose three pair sums all tie must have
  a vertex l through which all six pairwise distances factor additively;
* median condition: in every quadruple with a strict minimum pair sum, each
  of its four triples must have a vertex l through which the triple's three
  distances factor additively (with the companion sum identities).

`check_all` is the library's entry point, and `_decide` all that it decides.
Its verdict is Prim's pass (`_prim`, O(n^2)), under either numeric policy: a
matrix that agrees with its minimum spanning tree gets the all-ok report, and
no tree is built. Only a failure pays for explanations, ordered
deterministically so identical inputs produce byte-identical reports. One
scan serves all three checks. It builds the between-masks (for each pair u,
v the set of l with d(u,l) + d(l,v) = d(u,v)), makes one pass over the
triples that decides each triple's triangle inequalities and median, and one
pass that classifies each quadruple once, reading its center off the masks
and its triples' median verdicts off a table. The residual X of a positive
tree T on exactly the labels holds the labels in a pair where d differs from
T (every label under the float policy). The scan takes T as input, `_tree`'s
record of Prim's tree with one edge refitted when that shrinks X (`_refit`):
a moved tree edge leaves two labels in X, not all. The masks cost
O(n^2 + |X| n^2): a pair outside X reads its mask off T's path.
The two passes visit only the tuples with two or more members in X,
O(|X|^2 n^2) of them. The witnesses of the tuples with one member in X are
enumerated from T's branches, at a cost that follows their number. Under the
float policy, and when X is nearly every label, the scan is O(n^4). Under
the float policy a median candidate must also pass the companion sum
identities, which hold by arithmetic under the exact policy. When the scan's
epsilon rules find no witness, the report carries Prim's failure as a
`tree_fit` witness.

The CLI's reports are written here, from rows: `_write_json` and
`_write_text` fill one `%` template per witness kind (`_TEMPLATES`), the JSON
ones rendered by `dump_json`'s writer at import, and `check` hands them
`_decide`'s rows and makes no `Witness`. `check_all` makes its witnesses from
the same rows, and `CheckReport.to_json` is `dump_json` of the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product
from operator import itemgetter

from .core import DissimilarityMatrix, _json_text, dump_json
from .numeric import ExactPolicy
from .reconstruct import _prim

__all__ = ["Witness", "CheckFragment", "CheckReport", "check_all"]


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


@dataclass(frozen=True)
class CheckFragment:
    """Verdict of one check. `caveat` marks results computed on an input that
    already fails the four-point check, where the other conditions lose their
    intended meaning."""

    ok: bool
    witnesses: tuple[Witness, ...]
    caveat: bool = False


@dataclass(frozen=True)
class CheckReport:
    """Combined verdicts of the three checks plus every witness. `tree_fit`
    is set when no tree fits the matrix although every check passed, which
    only the float policy's tolerance allows."""

    four_point: CheckFragment
    condition_i: CheckFragment
    condition_ii: CheckFragment
    tree_fit: Witness | None = None

    @property
    def realizable(self) -> bool:
        return (
            self.four_point.ok and self.condition_i.ok and self.condition_ii.ok
            and self.tree_fit is None
        )

    @property
    def witnesses(self) -> tuple[Witness, ...]:
        """Four-point, then center, then median witnesses, each check's in
        the order its fragment holds them, then the `tree_fit` witness."""
        fit = (self.tree_fit,) if self.tree_fit else ()
        return (
            self.four_point.witnesses + self.condition_i.witnesses
            + self.condition_ii.witnesses + fit
        )

    def to_json_dict(self) -> dict:
        return {
            "realizable": self.realizable,
            "four_point": {"ok": self.four_point.ok},
            "condition_i": {"ok": self.condition_i.ok, "caveat": self.condition_i.caveat},
            "condition_ii": {"ok": self.condition_ii.ok, "caveat": self.condition_ii.caveat},
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }

    def to_json(self) -> str:
        return dump_json(self.to_json_dict())


# A witness kind is (condition, code, quadruple size, triple size, whether it
# has a best_l). A row of a kind is a flat tuple in the JSON report's order:
# best_l, the quadruple's labels, the triple's.
_KINDS = _TRIANGLE, _MAX_ONCE, _NO_CENTER, _NO_MEDIAN, _LONE_MEDIAN, _TREE_FIT = (
    ("four_point", "triangle_violation", 0, 3, False),
    ("four_point", "quadruple_max_once", 4, 0, False),
    ("condition_i", "no_center_vertex", 4, 0, True),
    ("condition_ii", "no_median_vertex", 4, 3, True),
    ("condition_ii", "no_median_vertex", 0, 3, True),
    ("tree_fit", "no_tree_within_eps", 0, 3, False),
)


def _json_template(payload, newline="\n") -> str:
    """`payload` as `dump_json` writes it after `newline`, each string "%s"
    in it a `%` slot."""
    return _json_text(payload, newline).replace('"%s"', "%s")


# The report with each flag a `%` slot, in the order `_write_json` fills
# them: without witnesses, and the head and tail around two witness slots,
# between which come a comma and the newline that indents a witness.
_SLOTS = {**CheckReport(*[CheckFragment("%s", (), "%s")] * 3).to_json_dict(), "realizable": "%s"}
_NO_WITNESSES = _json_template(_SLOTS)
_HEAD, _SEPARATOR, _TAIL = _json_template({**_SLOTS, "witnesses": ["%s", "%s"]}).rsplit("%s", 2)
_FLAGS = {flag: _json_text(flag, "") for flag in (False, True)}


def _templates(kind) -> tuple[str, str]:
    """The `%` templates of a witness of `kind`: as `dump_json` writes it in
    the report, and as a text line, which prints best_l last."""
    condition, code, quad, triple, best = kind
    witness = Witness(condition, code, ("%s",) * quad, ("%s",) * triple, "%s" if best else None)
    text = f"witness: {condition} {code}"
    text += " quadruple={" + ",".join(["%s"] * quad) + "}" if quad else ""
    text += " triple={" + ",".join(["%s"] * triple) + "}" if triple else ""
    text += " best_l=%s" if best else ""
    return _json_template(witness.to_json_dict(), _SEPARATOR[1:]), text


_TEMPLATES = {kind: _templates(kind) for kind in _KINDS}


def _write_json(realizable, fragments, groups) -> str:
    """`dump_json(CheckReport.to_json_dict())` from rows of int labels and
    bool flags: `fragments` holds the four-point, center and median checks'
    (ok, caveat, count), `groups` (kind, rows) in report order, each kind
    one of `_KINDS`."""
    witnesses = []
    for kind, rows in groups:
        witnesses.extend(map(_TEMPLATES[kind][0].__mod__, rows))
    (fp_ok, _, _), (ci_ok, ci_caveat, _), (cii_ok, cii_caveat, _) = fragments
    flags = map(_FLAGS.__getitem__, (ci_caveat, ci_ok, cii_caveat, cii_ok, fp_ok, realizable))
    if not witnesses:
        return _NO_WITNESSES % (*flags,)
    return _HEAD % (*flags,) + _SEPARATOR.join(witnesses) + _TAIL


def _write_text(realizable, fragments, groups) -> str:
    """The text report of the rows `_write_json` takes; a witness line
    prints a row's leading best_l last."""
    lines = [f"realizable: {'yes' if realizable else 'no'}"]
    names = ("four-point", "center condition", "median condition")
    for name, (ok, caveat, count) in zip(names, fragments):
        tag = "ok" if ok else f"FAIL ({count} witnesses)"
        lines.append(f"{name}: {tag}" + (" [caveat: four-point failed]" if caveat else ""))
    for kind, rows in groups:
        template, best = _TEMPLATES[kind][1], kind[4]
        lines.extend(template % (row[best:] + row[:best]) for row in rows)
    return "\n".join(lines)


def _between_masks(grid, eq, n, anc, residual, outside):
    """`B[u][v]` for u != v: the bitmask of every l with d(u,v) = d(u,l) + d(v,l),
    bit l standing for label l.

    A pair that meets the residual X is tested against every l. For u and v in
    `outside`, the labels not in X, d agrees with the tree T of `anc` on every
    pair through u or v, and T's weights are positive, so the l are the
    vertices of T's u-v path: anc[u] ^ anc[v] and the deepest common ancestor,
    whose anc is anc[u] & anc[v]. So the masks cost O(n^2 + |X| n^2), and
    O(n^3) when X is every label.
    """
    labels = range(1, n + 1)
    between = [[0] * (n + 1) for _ in range(n + 1)]
    bit = {a: 1 << x for x, a in enumerate(anc)}
    for i, u in enumerate(outside):
        row, au = between[u], anc[u]
        for v in outside[i:]:
            av = anc[v]
            row[v] = between[v][u] = au ^ av | bit[au & av]
    for u in residual:
        row_u = grid[u]
        for v in labels:
            if v == u or v < u and v in residual:
                continue
            duv, row_v = row_u[v], grid[v]
            mask = 0
            for l in labels:
                if eq(duv, row_u[l] + row_v[l]):
                    mask |= 1 << l
            between[u][v] = between[v][u] = mask
    return between


def _refit(grid, path, edges, anc, residual, mismatched):
    """The edges, residual and mismatched lists of Prim's tree T with the one
    edge reweighted that leaves the fewest labels in the residual, or T's own
    if none leaves fewer. A candidate edge, named by its endpoint c farther
    from label 1, lies on every mismatched pair's path (bit c of anc[x] ^
    anc[y]). It gets the weight w' = d(x,y) - (T(x,y) - w) that fits one
    mismatched pair (x, y), if positive, from T(c, .) = Prim's path[c]. The
    pairs off it agreed with T and keep their path weight, so only the pairs
    across it, whose paths run through c, are compared again: O(n^2) per
    candidate. A rejected matrix leaves two labels in the residual of any
    tree at least, so two ends it.
    """
    labels = range(1, len(anc))
    common = -1
    for u in residual:
        for v in mismatched[u]:
            common &= anc[u] ^ anc[v]
    x = min(residual)
    y = mismatched[x][0]
    best = edges, residual, mismatched
    for c in (c for c in labels if common >> c & 1):
        dist = path[c]
        shift = grid[x][y] - dist[x] - dist[y]
        above = [b for b in labels if not anc[b] >> c & 1]
        if min(dist[b] for b in above) + shift <= 0:  # w' <= 0; w is the least dist across
            continue
        found, pairs = set(), [[] for _ in anc]
        for a in (a for a in labels if anc[a] >> c & 1):
            row, base = grid[a], dist[a] + shift
            for b in above:
                if row[b] != base + dist[b]:
                    found.update((a, b))
                    pairs[a].append(b)
                    pairs[b].append(a)
            if len(found) >= len(best[1]):
                break
        else:
            best = [(v, p, w + shift if v == c else w) for v, p, w in edges], found, pairs
            if len(found) == 2:
                break
    return best


def _tree(m: DissimilarityMatrix, prim):
    """The scan's steering tree T, as (anc, edges, residual, mismatched):
    anc[x] the bitmask of x and its ancestors from label 1, T's edges (v, p,
    w) in join order (p joined before v), and the residual and mismatched
    lists of d against T (`_scan`). Under the exact policy T is the tree of
    Prim's record, reweighted in one edge by `_refit` when more than one
    pair mismatches it. Prim's T row of a label is the grid's own row until a
    sum differs from d, a mismatch under the exact policy: so the residual
    is the labels with a row of their own, and mismatched[x], ascending,
    where it differs from the grid's, in O(|X| n). Under the float policy T
    has no edges and the residual is every label."""
    n = m.n
    anc = [0] * (n + 1)
    anc[1] = 2
    if not isinstance(m.policy, ExactPolicy):
        return anc, (), range(1, n + 1), ((),) * (n + 1)
    edges, _, path = prim
    for v, p, _ in edges:  # p joined before v, so anc[p] is set
        anc[v] = anc[p] | 1 << v
    rows = zip(path, m.grid)
    mismatched = [() if t is d else [l for l, w in enumerate(t) if w != d[l]] for t, d in rows]
    residual = frozenset(x for x, others in enumerate(mismatched) if others)
    if sum(map(len, mismatched)) > 2:
        edges, residual, mismatched = _refit(m.grid, path, edges, anc, residual, mismatched)
    return anc, edges, residual, mismatched


def _median_best(grid, eq, b, labels, u, v, w):
    """`best_l` of a triple u < v < w without a median: the first l with the
    most of its three factorizations through l and the first two companion
    identities, d(u,v) + d(w,l) = d(u,w) + d(v,l) = d(u,l) + d(v,w)."""
    gu, gv, gw = grid[u], grid[v], grid[w]
    duv, duw, dvw = gu[v], gu[w], gv[w]
    buv, buw, bvw = b[u][v], b[u][w], b[v][w]
    best, most = 0, -1
    for l in labels:
        x2 = duw + gv[l]
        score = (
            (buv >> l & 1) + (buw >> l & 1) + (bvw >> l & 1)
            + eq(duv + gw[l], x2) + eq(x2, gu[l] + dvw)
        )
        if score > most:
            best, most = l, score
    return best


def _no_center(b, labels, quad):
    """`best_l` of a quadruple without a center: the first l in the most of
    the quadruple's six between-masks."""
    i, j, k, t = quad
    bi, bj, bk = b[i], b[j], b[k]
    m1, m2, m3, m4, m5, m6 = bi[j], bi[k], bi[t], bj[k], bj[t], bk[t]
    best, most = 0, -1
    for l in labels:
        score = (
            (m1 >> l & 1) + (m2 >> l & 1) + (m3 >> l & 1)
            + (m4 >> l & 1) + (m5 >> l & 1) + (m6 >> l & 1)
        )
        if score > most:
            best, most = l, score
    return best


def _companions_agree(grid, eq, u, v, w, l):
    """Whether d(u,v) + d(w,l), d(u,w) + d(v,l) and d(u,l) + d(v,w) agree
    pairwise: under the float policy a common mask bit l of triple u < v < w
    is a median only then."""
    gl = grid[l]
    x1, x2, x3 = grid[u][v] + gl[w], grid[u][w] + gl[v], gl[u] + grid[v][w]
    return eq(x1, x2) and eq(x2, x3) and eq(x1, x3)


def _scan(m: DissimilarityMatrix, tree):
    """The witness rows of all three checks, (triangles, max_once, centers,
    median), each row in its kind's layout (`_KINDS`): triples, quadruples,
    (best_l, *quadruple) and (best_l, *quadruple, *triple).

    Under the exact policy a tree T sorts the labels: the residual X holds
    every label in a pair where d differs from T's path weight, and
    mismatched[x] the labels l with d(x,l) != T(x,l). The argument below
    needs only that T is a tree on exactly the labels with positive weights;
    d then agrees with it on every pair that has a member outside X. The
    scan reads every fact of T off `tree`, a record as `_tree` builds it:
    (anc, edges, residual, mismatched). Any such tree gives the same rows,
    and its X sets only the cost. Under the float policy eps-equality is not
    transitive, so X is every label and the visit below is all of it.

    Tuples with two or more members in X are visited in full: a pass over
    the triples decides each one's triangle inequalities and median, and a
    pass over the quadruples classifies each one once, reads its center off
    the masks and its triples' median verdicts off the `no_median` table.
    Their number is O(|X|^2 n^2). A tuple disjoint from X sees only T, so it
    has no witness: the four-point rule and the triangle inequalities hold,
    and its median or center is the vertex of T that lies in every mask it
    needs, the only one there. The pass asks only whether a center exists:
    once the four-point rule holds, d is a tree metric (Buneman), a center
    lies on all six paths of its quadruple, which meet in one point of that
    tree, and two centers there would be labels at distance 0, which no
    matrix holds.

    A tuple with exactly one member x in X also sees only T's distances,
    since every pair in it has a member outside X; so it has no four-point
    witness and T's quadruple kind. Its witnesses come from T's branches,
    the components of T - l, at some l in mismatched[x]:

    * A triple {x, j, k} lacks a median iff its median c in T lies in
      mismatched[x]. Its candidates lie in B[j][k], the j-k path of T. A
      candidate l there meets d(x,l) + T(j,l) = T(x,j) and d(x,l) + T(k,l)
      = T(x,k); adding them gives d(x,l) = T(x,c), then T(j,l) = T(j,c), so
      l = c, and d(x,c) = T(x,c). Conversely c is a median when d(x,c) =
      T(x,c). As c is in X and j, k are not, c is none of the three, and
      the triple lacks a median iff x, j and k lie in three branches at an
      l in mismatched[x].
    * A quadruple {x, a, b, c} has all three pair sums equal iff T has a
      vertex m on all six of its paths, the median of each of its triples.
      The AND of its three masks outside X is the median of {a, b, c}, m,
      a single vertex. m is in B[x][a] iff d(x,m) + T(a,m) = T(x,a) =
      T(x,m) + T(a,m), so the quadruple lacks a center iff m lies in
      mismatched[x]. Then m is in X and none of the four, so they lie in
      four branches at m; conversely four labels in four branches at l tie
      all three sums at l. So the quadruples without a center are x with a,
      b, c from three further branches at an l in mismatched[x], none of
      them in x's branch.
    * A quadruple reports a median witness for each of its triples without
      a median when two pair sums tie at the top. A one-member quadruple's
      triple without x is disjoint from X, so the witnesses are its triples
      {x, j, k} at their l, with a fourth label t outside X. The quadruple
      ties all three sums iff t lies in a fourth branch at l, so it reports
      the triple iff t lies in the branch of x, j or k.

    These are enumerated, not searched, before the quadruple pass, which
    reads the one-member triples of its two-member quadruples off
    `no_median`. Each witness list comes out in report order, lexicographic
    by quadruple, then by triple; with three points `median` holds the lone
    triple's row (best_l, 1, 2, 3).
    """
    grid, eq, lt = m.comparison_view()
    n = m.n
    labels = range(1, n + 1)
    exact = isinstance(m.policy, ExactPolicy)
    anc, edges, residual, mismatched = tree
    outside = [l for l in labels if l not in residual]
    b = _between_masks(grid, eq, n, anc, residual, outside)
    # The tuples are enumerated lexicographically by nested loops. An index
    # runs over all of later[k] = (k, n] when the tuple can reach two members
    # in X without it, and otherwise only over later_x[k] = X & (k, n].
    later = [range(k + 1, n + 1) for k in range(n + 1)]
    later_x = [[l for l in later[k] if l in residual] for k in range(n + 1)]
    triangles, max_once, centers, median = [], [], [], []
    # A triple u < v < w without a median maps to its best failing l, and
    # sets bit w of no_median[u][v] and bit u of no_median[v][w]: two entries
    # then hold the verdicts of a quadruple's four triples.
    failing = {}
    no_median = [[0] * (n + 1) for _ in range(n + 1)]

    def lacks_median(u, v, w):
        failing[u, v, w] = _median_best(grid, eq, b, labels, u, v, w)
        no_median[u][v] |= 1 << w
        no_median[v][w] |= 1 << u

    for u, v in combinations(labels, 2):
        inside = (u in residual) + (v in residual)
        if not inside:
            continue
        gu, gv, bu, bv = grid[u], grid[v], b[u], b[v]
        for w in (later if inside == 2 else later_x)[v]:
            gw = grid[w]
            if lt(gu[v] + gv[w], gu[w]) or lt(gu[w] + gw[v], gu[v]) or lt(gv[u] + gu[w], gv[w]):
                triangles.append((u, v, w))
            # Under the exact policy each companion sum equals d(u,l) + d(v,l)
            # + d(w,l) once the three factorizations hold, so a common mask
            # bit is a median.
            candidates = bu[v] & bu[w] & bv[w]
            if candidates and (
                exact
                or any(_companions_agree(grid, eq, u, v, w, l) for l in labels if candidates >> l & 1)
            ):
                continue
            lacks_median(u, v, w)
    # One-member tuples, enumerated from T's branches at each l that is
    # mismatched with x, as the docstring proves; with every label in X there
    # are none.
    for x in residual if outside else ():
        for l in mismatched[x]:
            branch = [1] * (n + 1)  # the branch toward label 1 is named 1
            for v, p, _ in edges:  # in join order: branch[p] is set
                branch[v] = v if p == l else branch[p]
            groups = {}
            for y in outside:
                groups.setdefault(branch[y], []).append(y)
            own = groups.get(branch[x], [])
            parts = [group for root, group in groups.items() if root != branch[x]]
            for one, two in combinations(parts, 2):
                for j, k in product(one, two):
                    triple = tuple(sorted((x, j, k)))
                    lacks_median(*triple)
                    best = failing[triple]
                    for t in chain(own, one, two):
                        if t != j and t != k:
                            median.append((best, *sorted((*triple, t)), *triple))
            for one, two, three in combinations(parts, 3):
                for trio in product(one, two, three):
                    quad = sorted((x, *trio))
                    centers.append((_no_center(b, labels, quad), *quad))
    for i, j in combinations(labels, 2):
        inside = (i in residual) + (j in residual)
        gi, gj, bi, bj = grid[i], grid[j], b[i], b[j]
        for k in (later if inside else later_x)[j]:
            gk = grid[k]
            for t in (later if inside + (k in residual) > 1 else later_x)[k]:
                quad = (i, j, k, t)
                s1, s2, s3 = gi[j] + gk[t], gi[k] + gj[t], gi[t] + gj[k]
                top = max(s1, s2, s3)
                # The quadruple is classified here rather than in a helper,
                # since a call per quadruple was much of the pass's cost. The
                # largest pair sum attained once breaks the four-point rule;
                # attained three times the quadruple needs a center, twice
                # each of its triples needs a median.
                hits = eq(s1, top) + eq(s2, top) + eq(s3, top)
                if hits == 1:
                    max_once.append(quad)
                elif hits == 3:
                    if not bi[j] & bi[k] & bi[t] & bj[k] & bj[t] & b[k][t]:
                        centers.append((_no_center(b, labels, quad), *quad))
                elif no_median[i][j] & (1 << k | 1 << t) or no_median[k][t] & (1 << i | 1 << j):
                    for triple in ((i, j, k), (i, j, t), (i, k, t), (j, k, t)):
                        best = failing.get(triple)
                        if best is not None:
                            median.append((best, *quad, *triple))
    # The enumerated witnesses came first and in no order; report order is
    # lexicographic by quadruple, then by triple, each pair occurring once.
    # A row after its best_l is its quadruple and triple: sorting by that key
    # costs less than sorting nested rows and flattening them after.
    for rows in (centers, median):
        rows.sort(key=itemgetter(slice(1, None)))
    # With only three points there is no quadruple to scan, yet the median
    # requirement still separates realizable inputs (a strict triangle on
    # three points leaves no vertex to sit between the other two), so the
    # lone triple's verdict is reported directly.
    if n == 3 and failing:
        median.append((failing[1, 2, 3], 1, 2, 3))
    return triangles, max_once, centers, median


def _scan_rows(m: DissimilarityMatrix, prim):
    """One scan's rows, as `_decide` returns them, without its shortcut."""
    triangles, max_once, centers, median = _scan(m, _tree(m, prim))
    failures = len(triangles) + len(max_once)
    fragments = [(not failures, False, failures)]
    fragments += [(not rows, failures > 0, len(rows)) for rows in (centers, median)]
    groups = (
        (_TRIANGLE, triangles), (_MAX_ONCE, max_once), (_NO_CENTER, centers),
        (_LONE_MEDIAN if m.n == 3 else _NO_MEDIAN, median),
    )
    return not (failures or centers or median), fragments, groups


def _decide(m: DissimilarityMatrix):
    """What `check_all` decides, as (realizable, fragments, groups): all ok
    when Prim's pass (`_prim`, O(n^2), run once) finds no mismatch, else the
    rows of the scan it hands Prim's record to, whose cost the module
    docstring gives. When the scan finds no witness, which the theorem rules
    out under the exact policy, a `tree_fit` row holds Prim's failing (v, p, x)."""
    prim = _prim(m)
    if prim.mismatch is None:
        return True, [(True, False, 0)] * 3, ()
    realizable, fragments, groups = _scan_rows(m, prim)
    if realizable:
        groups = ((_TREE_FIT, (prim.mismatch,)),)
    return False, fragments, groups


def _report(realizable, fragments, groups) -> CheckReport:
    """The `CheckReport` of `_decide`'s rows: the one place that makes
    `Witness` objects."""
    witnesses = {"four_point": [], "condition_i": [], "condition_ii": [], "tree_fit": [None]}
    for (condition, code, quad, triple, best), rows in groups:
        witnesses[condition] += [
            Witness(condition, code, row[best:best + quad] or None, row[best + quad:] or None,
                    row[0] if best else None)
            for row in rows
        ]
    checks = [
        CheckFragment(ok, tuple(witnesses[name]), caveat)
        for name, (ok, caveat, _) in zip(("four_point", "condition_i", "condition_ii"), fragments)
    ]
    return CheckReport(*checks, tree_fit=witnesses["tree_fit"][-1])


def check_all(m: DissimilarityMatrix) -> CheckReport:
    """Run all three checks: the report of `_decide`'s verdicts and rows.
    Realizable means Prim's pass found no mismatch."""
    return _report(*_decide(m))
