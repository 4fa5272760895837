"""Differential test of the one-pass witness scan against the naive per-l loops.

The reference below is the scan as it was written before the between-mask
pass: three separate walks over the quadruples, each testing every candidate
l with the pairwise factorizations (and, for a median, the companion sum
identities) directly. It is kept here only as the reference the program is
compared against.
"""

import io
import json
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations, islice

from treexact import (
    CheckFragment,
    CheckReport,
    DissimilarityMatrix,
    EXACT,
    FloatPolicy,
    UnrealizableWitness,
    WeightedTree,
    Witness,
    all_pairs_weights,
    check_all,
    reconstruct,
)
from treexact import conditions
from treexact.cli import main
from treexact.conditions import _scan, _tree
from treexact.core import _adjacency, _walk, dump_json
from treexact.numeric import ExactPolicy
from treexact.reconstruct import _prim

from helpers import report_rows, report_text, scan_report

# ---------------------------------------------------------------- reference

_RANK = {"four_point": 0, "condition_i": 1, "condition_ii": 2}
VIOLATION, ALL_THREE_EQUAL, TWO_EQUAL_MAX = "violation", "all_three_equal", "two_equal_max"


def _key(w):
    return (_RANK[w.condition], w.quadruple or (), w.triple or ())


def _kind(sums, eq):
    top = max(sums)
    hits = sum(eq(s, top) for s in sums)
    if hits == 3:
        return ALL_THREE_EQUAL
    if hits == 2:
        return TWO_EQUAL_MAX
    return VIOLATION


def _quad_kind(grid, eq, i, j, k, t):
    return _kind(
        (grid[i][j] + grid[k][t], grid[i][k] + grid[j][t], grid[i][t] + grid[j][k]), eq
    )


def _best(n, score):
    best, best_hits = 1, -1
    for l in range(1, n + 1):
        hits = score(l)
        if hits > best_hits:
            best, best_hits = l, hits
    return best


def ref_four_point(m):
    grid, eq, lt = m.comparison_view()
    n = m.n
    witnesses = []
    for quad in combinations(range(1, n + 1), 4):
        if _quad_kind(grid, eq, *quad) == VIOLATION:
            witnesses.append(Witness("four_point", "quadruple_max_once", quadruple=quad))
    for i, j, k in combinations(range(1, n + 1), 3):
        if (
            lt(grid[i][j] + grid[j][k], grid[i][k])
            or lt(grid[i][k] + grid[k][j], grid[i][j])
            or lt(grid[j][i] + grid[i][k], grid[j][k])
        ):
            witnesses.append(Witness("four_point", "triangle_violation", triple=(i, j, k)))
    witnesses.sort(key=_key)
    return CheckFragment(ok=not witnesses, witnesses=tuple(witnesses))


def _center_hits(grid, eq, quad, l):
    return sum(
        1 for u, v in combinations(quad, 2) if eq(grid[u][v], grid[u][l] + grid[v][l])
    )


def ref_condition_i(m, four_point_ok):
    grid, eq, _ = m.comparison_view()
    n = m.n
    enforce_unique = four_point_ok and isinstance(m.policy, ExactPolicy)
    witnesses = []
    for quad in combinations(range(1, n + 1), 4):
        if _quad_kind(grid, eq, *quad) != ALL_THREE_EQUAL:
            continue
        centers = []
        for l in range(1, n + 1):
            if _center_hits(grid, eq, quad, l) == 6:
                centers.append(l)
                if not enforce_unique:
                    break
        # Once four-point passes under exact, d is a tree metric and a
        # center is the one point where the quadruple's six paths meet.
        assert len(centers) <= 1, f"quadruple {quad} has centers {centers}"
        if not centers:
            best = _best(n, lambda l: _center_hits(grid, eq, quad, l))
            witnesses.append(
                Witness("condition_i", "no_center_vertex", quadruple=quad, best_l=best)
            )
    witnesses.sort(key=_key)
    return CheckFragment(ok=not witnesses, witnesses=tuple(witnesses), caveat=not four_point_ok)


def _median_checks(grid, eq, triple, l):
    u, v, w = triple
    x1 = grid[u][v] + grid[w][l]
    x2 = grid[u][w] + grid[v][l]
    x3 = grid[u][l] + grid[v][w]
    return (
        eq(grid[u][v], grid[u][l] + grid[v][l]),
        eq(grid[u][w], grid[u][l] + grid[w][l]),
        eq(grid[v][w], grid[v][l] + grid[w][l]),
        eq(x1, x2),
        eq(x2, x3),
        eq(x1, x3),
    )


def ref_condition_ii(m, four_point_ok):
    grid, eq, _ = m.comparison_view()
    n = m.n
    witnesses = []

    def scan_triple(quad, triple):
        if any(all(_median_checks(grid, eq, triple, l)) for l in range(1, n + 1)):
            return
        best = _best(n, lambda l: sum(_median_checks(grid, eq, triple, l)[:5]))
        witnesses.append(
            Witness(
                "condition_ii", "no_median_vertex", quadruple=quad, triple=triple, best_l=best
            )
        )

    if n == 3:
        scan_triple(None, (1, 2, 3))
    for quad in combinations(range(1, n + 1), 4):
        if _quad_kind(grid, eq, *quad) != TWO_EQUAL_MAX:
            continue
        for triple in combinations(quad, 3):
            scan_triple(quad, triple)
    witnesses.sort(key=_key)
    return CheckFragment(ok=not witnesses, witnesses=tuple(witnesses), caveat=not four_point_ok)


def ref_check_all(m):
    fp = ref_four_point(m)
    ci = ref_condition_i(m, four_point_ok=fp.ok)
    cii = ref_condition_ii(m, four_point_ok=fp.ok)
    return CheckReport(four_point=fp, condition_i=ci, condition_ii=cii)


# ---------------------------------------------------------------- inputs


def _tree_metric(rng, n, hidden, weights):
    """Path sums of a random tree on n + hidden vertices, restricted to n of
    them (0-based n x n rows)."""
    size = n + hidden
    adj = {v: [] for v in range(size)}
    for v in range(1, size):
        u = rng.randrange(v)
        w = rng.choice(weights)
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = []
    for src in range(size):
        seen = {src: 0}
        stack = [src]
        while stack:
            here = stack.pop()
            for nxt, w in adj[here]:
                if nxt not in seen:
                    seen[nxt] = seen[here] + w
                    stack.append(nxt)
        dist.append(seen)
    keep = rng.sample(range(size), n)
    return [[dist[a][b] for b in keep] for a in keep]


def _perturb(rng, rows, delta):
    n = len(rows)
    i, j = rng.sample(range(n), 2)
    if rows[i][j] + delta > 0:
        rows[i][j] = rows[j][i] = rows[i][j] + delta
    return rows


def _random_rows(rng, n, top):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(1, top)
    return rows


def _integer_rows(rng, n):
    family = rng.randrange(4)
    if family == 3:
        return _random_rows(rng, n, rng.choice((2, 4)))
    rows = _tree_metric(rng, n, rng.randrange(4), (1, 1, 2, 3))
    if family == 2:
        rows = _perturb(rng, rows, rng.choice((-1, 1)))
    return rows


def _jitter(rng, rows, eps):
    """Multiply every pair by 1 + r * eps with |r| <= 1.2: equalities of the
    integer matrix become near-ties that the epsilon rule may or may not see."""
    n = len(rows)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out[i][j] = out[j][i] = rows[i][j] * (1 + rng.uniform(-1.2, 1.2) * eps)
    return out


def _perturbed_trees(count, seed):
    """Exact tree metrics without hidden vertices, n = 9..12, each with one
    pair moved by 1. Moving a pair off the tree leaves a residual of two
    labels; moving a tree edge makes nearly every pair disagree with the
    minimum spanning tree."""
    rng = random.Random(seed)
    for index in range(count):
        rows = _tree_metric(rng, 9 + index % 4, 0, (1, 1, 2, 3))
        yield DissimilarityMatrix.from_rows(_perturb(rng, rows, rng.choice((-1, 1))), EXACT)


def _moved_trees(count, seed):
    """Exact tree metrics without hidden vertices, n = 9..12, with two or
    three pairs moved by a whole, a half or a third of the least weight. A
    label of the residual is then mismatched with only some of the others,
    and the moved entries leave the grid of the weights."""
    rng = random.Random(seed)
    deltas = (-1, 1, Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 3), Fraction(1, 3))
    for index in range(count):
        rows = _tree_metric(rng, 9 + index % 4, 0, (1, 1, 2, 3))
        rows = [[Fraction(cell) for cell in row] for row in rows]
        for _ in range(rng.choice((2, 3))):
            rows = _perturb(rng, rows, rng.choice(deltas))
        yield DissimilarityMatrix.from_rows(rows, EXACT)


def _moved_edges(count, seed):
    """(matrix, moved edge): exact tree metrics without hidden vertices, n =
    9..12, with one tree edge moved by 1 or 1/2 either way. The edge is in
    turn a leaf edge, an edge with an endpoint of degree two, and any edge.
    While the moved edge stays in Prim's tree every pair across it disagrees
    with that tree, and a refit of its weight leaves only its two labels in
    the residual. Moved up past a neighbouring edge, it leaves Prim's tree,
    which the refit may then keep: some refit weights there are not
    positive."""
    rng = random.Random(seed)
    deltas = (-1, 1, Fraction(-1, 2), Fraction(1, 2))
    for index in range(count):
        n = 9 + index % 4
        label = rng.sample(range(1, n + 1), n)
        edges = [(label[v], label[rng.randrange(v)], rng.choice((1, 1, 2, 3))) for v in range(1, n)]
        degree = Counter(x for u, v, _ in edges for x in (u, v))
        least = (1, 2, None)[index % 3]
        pool = [e for e in edges if least in (None, min(degree[e[0]], degree[e[1]]))]
        u, v, w = rng.choice(pool or edges)
        tree = all_pairs_weights(WeightedTree.from_edges(n, edges))
        pairs = {(i, j): d for i, j, d in tree.pairs()}
        pairs[min(u, v), max(u, v)] += rng.choice([d for d in deltas if w + d > 0])
        yield DissimilarityMatrix.from_pairs(n, pairs, EXACT), {u, v}


def _matrices(count, seed):
    rng = random.Random(seed)
    for index in range(count):
        n = 3 + index % 6
        rows = _integer_rows(rng, n)
        if index % 3 == 0:
            yield DissimilarityMatrix.from_rows(rows, EXACT)
        elif index % 3 == 1:
            yield DissimilarityMatrix.from_rows(rows, FloatPolicy())
        else:
            eps = rng.choice((0.01, 0.05))
            yield DissimilarityMatrix.from_rows(_jitter(rng, rows, eps), FloatPolicy(eps))


# ---------------------------------------------------------------- tests

def _companion_decided(m):
    """Triples whose three factorizations hold through some l while no l
    passes the companion identities too."""
    grid, eq, _ = m.comparison_view()
    count = 0
    for triple in combinations(range(1, m.n + 1), 3):
        checks = [_median_checks(grid, eq, triple, l) for l in range(1, m.n + 1)]
        if any(all(c[:3]) for c in checks) and not any(all(c) for c in checks):
            count += 1
    return count


def _unreported_median_failures(m):
    """Triples without a median none of whose quadruples has a two-equal
    maximum, so no median witness names them."""
    grid, eq, _ = m.comparison_view()
    labels = range(1, m.n + 1)
    count = 0
    for triple in combinations(labels, 3):
        if any(all(_median_checks(grid, eq, triple, l)) for l in labels):
            continue
        quads = (tuple(sorted(triple + (x,))) for x in labels if x not in triple)
        if all(_quad_kind(grid, eq, *quad) != TWO_EQUAL_MAX for quad in quads):
            count += 1
    return count


def test_scan_matches_naive_loops():
    """1200 seeded matrices, n = 3..8, exact and float, 200 perturbed exact
    tree metrics, 200 with two or three pairs moved and 150 with one tree
    edge moved, n = 9..12: the scan's own report equals the reference's
    report and lists every witness in the reference's sorted order.
    `check_all` equals it too wherever the scan explains a failure: on
    every exact matrix, and on every float matrix that `reconstruct`
    rejects and the reference finds witnesses for.
    Every other float matrix gets the all-ok report, or the one `tree_fit`
    witness when `reconstruct` rejects it. The corpus fails every check
    somewhere, including medians that only the companion identities reject,
    triples without a median that no quadruple reports, and three-point
    inputs on both sides of the median verdict. The larger failing matrices
    include residuals of exactly two labels and of every label, and
    quadruples with one member in the residual that lack a center or hold a
    triple without a median: the witnesses the scan enumerates from its
    tree instead of testing each tuple. The residual is the scan's, after
    the refit: every tree edge moved within Prim's tree leaves two labels
    in it, and some inputs with two or three pairs moved keep Prim's."""
    codes, companion_decided, contract = set(), 0, Counter()
    unreported, three_point, residuals, lone = 0, Counter(), Counter(), Counter()
    kept, edge_residuals = Counter(), Counter()
    all_ok = CheckFragment(ok=True, witnesses=())
    corpus = chain(
        ((m, None) for m in chain(_matrices(1200, seed=7100), _perturbed_trees(200, seed=7200))),
        ((m, "pairs") for m in _moved_trees(200, seed=7400)),
        _moved_edges(150, seed=7800),
    )
    for m, moved in corpus:
        want = ref_check_all(m)
        merged = want.four_point.witnesses + want.condition_i.witnesses
        merged = tuple(sorted(merged + want.condition_ii.witnesses, key=_key))
        got = scan_report(m)
        assert got == want, m.rows
        assert got.witnesses == merged
        assert got.to_json() == want.to_json()
        built, report = reconstruct(m), check_all(m)
        if isinstance(m.policy, ExactPolicy) or (
            isinstance(built, UnrealizableWitness) and want.witnesses
        ):
            assert report == want, m.rows
            contract["scan"] += 1
        elif isinstance(built, UnrealizableWitness):
            fit = Witness("tree_fit", "no_tree_within_eps", triple=built.indices)
            assert report == replace(want, tree_fit=fit), m.rows
            contract["tree_fit"] += 1
        else:
            assert report == CheckReport(all_ok, all_ok, all_ok), m.rows
            contract["all_ok"] += 1
        codes.update(w.code for w in want.witnesses)
        if m.n >= 9 and want.witnesses:
            prim = _prim(m)
            _, _, residual, _ = _tree(m, prim)
            size = len(residual)
            residuals["two" if size == 2 else "all" if size == m.n else "other"] += 1
            if moved == "pairs":
                pairs = _mismatches(m, [(v, p, m.d(v, p)) for v, p, _ in prim.edges])
                if len(pairs) > 1:
                    kept[residual == {*chain(*pairs)}] += 1
            elif moved and any({v, p} == moved for v, p, _ in prim.edges):
                edge_residuals[size] += 1
            for w in want.condition_i.witnesses + want.condition_ii.witnesses:
                if w.quadruple and len(residual.intersection(w.quadruple)) == 1:
                    lone[w.code] += 1
        if isinstance(m.policy, FloatPolicy) and m.n >= 4:
            companion_decided += _companion_decided(m)
        if m.n == 3:
            three_point[bool(want.condition_ii.witnesses)] += 1
        else:
            unreported += _unreported_median_failures(m)
    assert codes == {
        "quadruple_max_once", "triangle_violation", "no_center_vertex", "no_median_vertex",
    }
    assert companion_decided > 0
    assert unreported > 0 and three_point[True] and three_point[False]
    assert contract["tree_fit"] and min(contract["scan"], contract["all_ok"]) > 100
    assert residuals["two"] and residuals["all"] and residuals["other"]
    assert kept[True] and kept[False]
    assert set(edge_residuals) == {2} and edge_residuals[2] > 100
    assert lone["no_center_vertex"] and lone["no_median_vertex"]


def test_companion_identities_reject_a_float_median():
    """Star with center 4 and arms 10 (to 1), 1 (to 2) and 1 (to 3), where
    d(1,2) and d(1,3) sit just inside the tolerance on opposite sides: every
    factorization through 4 holds, but x1 = 12.11 and x2 = 11.891 differ by
    more than eps * 12.11, so 4 is no median of {1,2,3}."""
    eps = 0.01
    rows = [
        [0, 11.11, 10.891, 10, 14],
        [11.11, 0, 2, 1, 5],
        [10.891, 2, 0, 1, 5],
        [10, 1, 1, 0, 4],
        [14, 5, 5, 4, 0],
    ]
    m = DissimilarityMatrix.from_rows(rows, FloatPolicy(eps))
    grid, eq, _ = m.comparison_view()
    assert all(_median_checks(grid, eq, (1, 2, 3), 4)[:3])
    assert not all(_median_checks(grid, eq, (1, 2, 3), 4))
    assert scan_report(m) == ref_check_all(m)
    assert any(w.triple == (1, 2, 3) for w in scan_report(m).condition_ii.witnesses)
    # `check` takes reconstruct's verdict, and Prim builds the star within eps.
    assert check_all(m).realizable


def test_strict_triangle_on_three_points():
    m = DissimilarityMatrix.from_rows([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    assert check_all(m) == scan_report(m) == ref_check_all(m)
    (witness,) = check_all(m).witnesses
    assert (witness.quadruple, witness.triple) == (None, (1, 2, 3))


def test_two_centers_only_where_four_point_fails():
    """Labels 5 and 6 are both centers of {1,2,3,4}; the quadruple {1,2,5,6}
    breaks the four-point rule, which is what makes a second center possible.
    The report still equals the naive loops'."""
    pairs = {(i, j): 2 for i, j in combinations(range(1, 5), 2)}
    pairs.update({(i, c): 1 for i in range(1, 5) for c in (5, 6)})
    pairs[(5, 6)] = 2
    m = DissimilarityMatrix.from_pairs(6, pairs)
    grid, eq, _ = m.comparison_view()
    assert [l for l in range(1, 7) if _center_hits(grid, eq, (1, 2, 3, 4), l) == 6] == [5, 6]
    report = check_all(m)
    assert not report.four_point.ok
    assert (1, 2, 5, 6) in [w.quadruple for w in report.four_point.witnesses]
    assert report == scan_report(m) == ref_check_all(m)


def _residual(m):
    """The residual of the scan's steering tree, as `_tree` derives it."""
    return _tree(m, _prim(m))[2]


def test_residual_is_the_moved_pair():
    """On a tree metric with one pair off the tree moved, the tree Prim grows
    is still the tree, so the residual is exactly that pair's two labels."""
    tree = WeightedTree.from_edges(6, [(1, 2, 1), (2, 3, 2), (2, 4, 3), (4, 5, 1), (4, 6, 2)])
    rows = [list(row[1:]) for row in all_pairs_weights(tree).rows[1:]]
    assert not _residual(DissimilarityMatrix.from_rows(rows))
    edges = {(u, v) for u, v, _ in tree.edges}
    for i, j in combinations(range(1, 7), 2):
        if (i, j) in edges:
            continue
        moved = [row[:] for row in rows]
        moved[i - 1][j - 1] += 1
        moved[j - 1][i - 1] += 1
        assert _residual(DissimilarityMatrix.from_rows(moved)) == {i, j}


def test_mismatched_are_the_pairs_off_the_grown_tree():
    """`_tree`'s mismatched[x] is every l, ascending, where d(x,l) differs
    from the path weight of its steering tree, as `all_pairs_weights`
    computes it, and the residual is the labels with a mismatch. The tree is
    Prim's on most inputs and on every input with one mismatched pair, and
    its one-edge refit on others."""
    corpus = chain(
        (m for m in _matrices(300, seed=7500) if isinstance(m.policy, ExactPolicy)),
        _perturbed_trees(50, seed=7600), _moved_trees(50, seed=7700),
    )
    sizes, trees = Counter(), Counter()
    for m in corpus:
        prim = _prim(m)
        _, edges, residual, mismatched = _tree(m, prim)
        weighted = [(v, p, Fraction(w, m.scale)) for v, p, w in edges]
        tree = all_pairs_weights(WeightedTree.from_edges(m.n, weighted))
        labels = range(1, m.n + 1)
        for x in labels:
            want = [l for l in labels if m.d(x, l) != tree.d(x, l)]
            assert list(mismatched[x]) == want, m.rows
        assert residual == {x for x in labels if mismatched[x]}
        sizes["none" if not residual else "all" if len(residual) == m.n else "some"] += 1
        trees["prim" if edges == prim.edges else "refit"] += 1
    assert min(sizes.values()) > 10 and len(sizes) == 3
    assert trees["prim"] > 100 and trees["refit"] > 10


def _mismatches(m, edges):
    """Every pair i < j where d differs from the path weight of the tree of
    `edges`, summed by `all_pairs_weights`."""
    tree = all_pairs_weights(WeightedTree.from_edges(m.n, edges))
    return {(i, j) for i, j, d in m.pairs() if d != tree.d(i, j)}


def test_refit_keeps_the_least_residual_of_one_edge_refits():
    """When more than one pair mismatches Prim's tree T, the scan's
    mismatched pairs are those of T or of T with one edge reweighted, with
    the fewest labels. The candidate edges lie on every mismatched pair's
    path; each is refitted to the pair of the least label in T's residual
    and its least partner, and skipped unless its weight stays positive.
    Here each path weight is summed by `all_pairs_weights`, and an edge lies
    on a pair's path iff doubling its weight moves the pair's path weight."""
    corpus = chain(
        (m for m, _ in _moved_edges(150, seed=7900)),
        _moved_trees(100, seed=8000), _perturbed_trees(100, seed=8100),
    )
    outcome = Counter()
    for m in corpus:
        prim = _prim(m)
        edges = [(v, p, m.d(v, p)) for v, p, _ in prim.edges]
        pairs = _mismatches(m, edges)
        if len(pairs) < 2:
            continue
        x = min(chain(*pairs))
        y = min(j if i == x else i for i, j in pairs if x in (i, j))
        tree = all_pairs_weights(WeightedTree.from_edges(m.n, edges))
        fits = {frozenset(pairs)}
        for index, (v, p, w) in enumerate(edges):
            def reweighted(weight):
                return edges[:index] + [(v, p, weight)] + edges[index + 1:]

            doubled = all_pairs_weights(WeightedTree.from_edges(m.n, reweighted(2 * w)))
            if not pairs <= _mismatches(doubled, edges):
                continue
            refit = m.d(x, y) - (tree.d(x, y) - w)
            if refit <= 0:
                outcome["not positive"] += 1
                continue
            fits.add(frozenset(_mismatches(m, reweighted(refit))))
        _, _, residual, mismatched = _tree(m, prim)
        got = {(i, j) for i in residual for j in mismatched[i] if i < j}
        assert got in fits and len(residual) == min(len({*chain(*fit)}) for fit in fits), m.rows
        assert residual == {*chain(*got)}
        outcome["refit" if got != pairs else "kept"] += 1
    assert min(outcome.values()) > 5 and len(outcome) == 3


def steering_record(m, edges):
    """`_tree`'s record (anc, edges, residual, mismatched) of the tree of
    `edges`, (u, v, w) on m's labels in any order with w on m's exact grid:
    its edges in the join order of a walk from label 1, and the residual and
    mismatched lists of the grid against its path weights, summed by
    `all_pairs_weights`."""
    joined = [(v, p, w) for p, v, w in _walk(_adjacency(m.n, edges), 1)]
    anc = [0] * (m.n + 1)
    anc[1] = 2
    for v, p, _ in joined:
        anc[v] = anc[p] | 1 << v
    tree = all_pairs_weights(WeightedTree.from_edges(m.n, edges))
    labels = range(1, m.n + 1)
    mismatched = [()] + [tuple(l for l in labels if m.grid[x][l] != tree.d(x, l)) for x in labels]
    return anc, joined, frozenset(x for x in labels if mismatched[x]), tuple(mismatched)


def raised_edge(n, edges, rng):
    """(matrix, raised pair): the path weights of the tree of `edges`, (u, v,
    w) on 1..n, with the entry of one tree edge raised by w2 / 2, w2 or
    w2 + 1, w2 the weight of an edge that meets it at one end. Raised by
    w2 + 1 the pair is the heaviest of a triangle, so it leaves Prim's
    tree; by w2 it ties, and by w2 / 2 it may stay."""
    u, v, w = rng.choice(edges)
    w2 = rng.choice([x for a, b, x in edges if len({a, b, u, v}) == 3])
    pairs = {(i, j): d for i, j, d in all_pairs_weights(WeightedTree.from_edges(n, edges)).pairs()}
    pairs[min(u, v), max(u, v)] += rng.choice((Fraction(w2, 2), w2, w2 + 1))
    return DissimilarityMatrix.from_pairs(n, pairs, EXACT), {u, v}


def assert_steering(m, edges, raised):
    """The scan's rows steered by the tree of `edges` equal its rows steered
    by `_tree`'s Prim tree, whose record is the record of its own edges;
    d differs from the tree of `edges` only on the `raised` pair. Returns
    the residual sizes of both trees, `_tree`'s first."""
    prim = _tree(m, _prim(m))
    own = steering_record(m, prim[1])
    assert own[0] == prim[0] and sorted(own[1]) == sorted(prim[1]), m.rows
    assert own[2] == prim[2] and [set(x) for x in own[3]] == [set(x) for x in prim[3]], m.rows
    record = steering_record(m, [(u, v, w * m.scale) for u, v, w in edges])
    assert record[2] == raised, m.rows
    assert _scan(m, record) == _scan(m, prim), m.rows
    return len(prim[2]), len(record[2])


def test_any_steering_tree_gives_the_same_rows():
    """The scan needs only some positive tree on exactly the labels: steered
    by the generating tree of a matrix with one tree edge's entry raised,
    whose residual is that pair, it gives the rows it gives steered by
    Prim's tree and its refit, whose residual is often most labels once the
    edge leaves Prim's tree. 60 trees at n = 24 and 20 at n = 48, weights in
    {1, 2, 3, 5}."""
    sizes, left = Counter(), Counter()
    for n, count in ((24, 60), (48, 20)):
        rng = random.Random(f"steering-{n}")
        for _ in range(count):
            edges = [(v, rng.randrange(1, v), rng.choice((1, 2, 3, 5))) for v in range(2, n + 1)]
            m, raised = raised_edge(n, edges, rng)
            size, _ = assert_steering(m, edges, raised)
            sizes["2" if size == 2 else "3-8" if size <= 8 else ">8"] += 1
            left[all({v, p} != raised for v, p, _ in _prim(m).edges)] += 1
    assert left[True] > 20 and left[False] > 20
    assert min(sizes.values()) > 5 and len(sizes) == 3


def _n24_perturbed_matrix():
    rng = random.Random(7300)
    rows = _perturb(rng, _tree_metric(rng, 24, 0, (1, 2, 3, 5)), 1)
    return DissimilarityMatrix.from_rows(rows, EXACT)


def _writer_matrices():
    """The matrices whose reports `_writer_reports` holds."""
    return {
        "three_points": DissimilarityMatrix.from_rows([[0, 2, 2], [2, 0, 2], [2, 2, 0]]),
        "n24_perturbed": _n24_perturbed_matrix(),
    }


def _writer_reports():
    ok = CheckFragment(ok=True, witnesses=())
    triangle = Witness("four_point", "triangle_violation", triple=(1, 2, 3))
    max_once = Witness("four_point", "quadruple_max_once", quadruple=(1, 2, 3, 4))
    no_center = Witness("condition_i", "no_center_vertex", quadruple=(2, 3, 5, 7), best_l=4)
    no_median = Witness(
        "condition_ii", "no_median_vertex", quadruple=(1, 2, 3, 4), triple=(1, 2, 4), best_l=3
    )
    fit = Witness("tree_fit", "no_tree_within_eps", triple=(2, 1, 3))
    # Hand-made kinds and labels, which no scan makes: strings that look
    # like `%` slots or need escaping, labels that are not ints, a flag
    # that is not a bool.
    odd_strings = Witness(
        "%s", "quadruple_%s_%d_100%_\\_\"%s\"_\u00e9\u00df", quadruple=(1, 2, 3, 4),
        triple=(2, 3, 4), best_l=5,
    )
    string_labels = Witness("four_point", "triangle_violation", triple=("a", "%s", '"b"'))
    bool_best = Witness("condition_i", "no_center_vertex", quadruple=(1, 2, 3, 4), best_l=True)
    return {
        "all_ok": CheckReport(ok, ok, ok),
        "triangle_only": CheckReport(
            CheckFragment(ok=False, witnesses=(triangle,)),
            replace(ok, caveat=True), replace(ok, caveat=True),
        ),
        "quadruple_and_triple": CheckReport(
            ok, ok, CheckFragment(ok=False, witnesses=(no_median, no_median))
        ),
        "best_l_none": CheckReport(
            CheckFragment(ok=False, witnesses=(triangle, max_once)),
            CheckFragment(ok=False, witnesses=(no_center,), caveat=True),
            replace(ok, caveat=True),
        ),
        "tree_fit": CheckReport(ok, ok, ok, tree_fit=fit),
        "odd_strings": CheckReport(CheckFragment(ok=False, witnesses=(odd_strings,)), ok, ok),
        "string_labels": CheckReport(CheckFragment(ok=False, witnesses=(string_labels,)), ok, ok),
        "bool_best_l": CheckReport(ok, CheckFragment(ok=False, witnesses=(bool_best,)), ok),
        "int_flag": CheckReport(CheckFragment(ok=1, witnesses=()), ok, ok),
        **{name: check_all(m) for name, m in _writer_matrices().items()},
    }


def test_report_writer_matches_the_generic_dump():
    """`CheckReport.to_json` must print the generic sorted, indented dump for
    every report, hand-made kinds, labels and flags among them. The CLI's
    `_write_json` fills templates rendered at import for the kinds the scan
    emits, so it is checked on `check_all`'s reports only: from their rows it
    must print the same dump."""
    for name, report in _writer_reports().items():
        want = dump_json(report.to_json_dict())
        assert report.to_json() == want, name
        if name in _writer_matrices():
            assert conditions._write_json(*report_rows(report)) == want, name


def _cli_check(monkeypatch, capsys, m, fmt):
    """(exit code, stdout) of `treexact check -f fmt` on m's CSV."""
    flags = []
    if isinstance(m.policy, FloatPolicy):
        flags = ["--mode", "float", "--eps", repr(m.policy.epsilon)]
    monkeypatch.setattr(sys, "stdin", io.StringIO(m.to_csv()))
    code = main(["check", "-f", fmt, *flags])
    return code, capsys.readouterr().out


def test_cli_check_makes_no_witness(monkeypatch, capsys):
    """`check` writes its report straight from the scan's rows: on an n = 24
    perturbed input it makes no `Witness`, where `check_all` makes one per
    witness."""
    made = Counter()

    def counted(*args, **kwargs):
        made["witness"] += 1
        return Witness(*args, **kwargs)

    monkeypatch.setattr(conditions, "Witness", counted)
    m = _n24_perturbed_matrix()
    for fmt in ("json", "text"):
        assert _cli_check(monkeypatch, capsys, m, fmt)[0] == 1
    assert made["witness"] == 0
    witnesses = check_all(m).witnesses
    assert len(witnesses) > 10 and made["witness"] == len(witnesses)


def test_one_prim_pass_per_check(monkeypatch, capsys):
    """`check` runs Prim's pass once and hands its record down, on failing
    inputs (one with a moved tree edge, which the refit reads) and on a
    realizable one, under both policies; nothing is left on the matrix."""
    calls = Counter()

    def counted(m):
        calls["prim"] += 1
        return _prim(m)

    monkeypatch.setattr(conditions, "_prim", counted)
    moved_edge = next(m for m, moved in _moved_edges(150, seed=7800) if moved)
    tree = WeightedTree.from_edges(5, [(1, 2, 1), (2, 3, 2), (2, 4, 3), (4, 5, 1)])
    for m, code in ((_n24_perturbed_matrix(), 1), (moved_edge, 1), (all_pairs_weights(tree), 0)):
        rows = [list(row[1:]) for row in m.rows[1:]]
        for matrix in (m, DissimilarityMatrix.from_rows(rows, FloatPolicy())):
            for fmt in ("json", "text"):
                calls.clear()
                assert _cli_check(monkeypatch, capsys, matrix, fmt)[0] == code
                assert calls["prim"] == 1
            calls.clear()
            check_all(matrix)
            assert calls["prim"] == 1
            reconstruct(matrix)
            assert "_prim" not in vars(matrix)


def _text_fields(line):
    """A text witness line as the JSON report's witness object."""
    words = line.split()
    got = dict.fromkeys(("quadruple", "triple", "best_l"), None)
    got.update(condition=words[1], code=words[2])
    for word in words[3:]:
        key, _, value = word.partition("=")
        got[key] = int(value) if key == "best_l" else [int(x) for x in value.strip("{}").split(",")]
    return got


def test_text_witness_lines_read_back_as_the_json_witnesses(monkeypatch, capsys):
    """Each witness line of `check -f text` reads back as the JSON report's
    witness in its place: same condition, code, quadruple, triple and best_l.
    The inputs are the writer matrices and every 20th matrix of the
    naive-loop corpus, plus each matrix whose report holds a kind not yet
    seen, so that every kind is met, `tree_fit` and the lone triple among
    them."""
    corpus = chain(
        _matrices(1200, seed=7100), _perturbed_trees(200, seed=7200), _moved_trees(200, seed=7400),
        (m for m, _ in _moved_edges(150, seed=7800)),
    )
    kinds = set()

    def kind(w):
        quad, triple = w["quadruple"] or (), w["triple"] or ()
        return w["condition"], w["code"], len(quad), len(triple), w["best_l"] is not None

    for index, m in enumerate(chain(_writer_matrices().values(), corpus)):
        report = check_all(m).to_json_dict()
        if index % 20 and {kind(w) for w in report["witnesses"]} <= kinds:
            continue
        code, out = _cli_check(monkeypatch, capsys, m, "json")
        witnesses = json.loads(out)["witnesses"]
        text_code, text = _cli_check(monkeypatch, capsys, m, "text")
        lines = text.splitlines()
        got = [_text_fields(line) for line in lines if line.startswith("witness: ")]
        assert text_code == code and got == witnesses, m.rows
        assert lines[0] == f"realizable: {'yes' if code == 0 else 'no'}"
        kinds.update(map(kind, witnesses))
    assert kinds == set(conditions._KINDS)


def test_cli_check_writes_what_the_report_writers_write(monkeypatch, capsys):
    """The CLI writes from rows, the library from a `CheckReport`: on the
    writer matrices and every 20th matrix of the naive-loop corpus, its JSON
    is the generic dump of `check_all`'s report and its text is
    `report_text` of it, and the report's rows give the report back."""
    corpus = chain(
        _matrices(1200, seed=7100), _perturbed_trees(200, seed=7200), _moved_trees(200, seed=7400),
        (m for m, _ in _moved_edges(150, seed=7800)),
    )
    verdicts = Counter()
    for m in chain(_writer_matrices().values(), islice(corpus, 0, None, 20)):
        report = check_all(m)
        code = 0 if report.realizable else 1
        json_text = dump_json(report.to_json_dict())
        assert _cli_check(monkeypatch, capsys, m, "json") == (code, json_text + "\n")
        assert _cli_check(monkeypatch, capsys, m, "text") == (code, report_text(report) + "\n")
        assert conditions._report(*report_rows(report)) == report
        verdicts[code] += 1
    assert min(verdicts[0], verdicts[1]) > 10
