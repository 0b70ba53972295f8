"""Exhaustive engines for small graphs and the series-parallel reduction.

Exact cycle-decomposition numbers by memoized search over edge subsets and
a full scan for edge-disjoint cycle pairs meeting in three or more vertices
trade time for certainty; their budgets are explicit and overruns raise. One
series-parallel reduction records how a block reduces to one edge: treewidth
<= 2 means every block reduces, and series_parallel_numbers folds exact
tables over the record. Necklace trees split class H graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import GraphError, NotClassHError, NotEulerianError, PreconditionViolatedError, TooLargeError
from .connectivity import _lowpoint, connected_components, is_biconnected
from .multigraph import (
    Cycle,
    CycleDecomposition,
    MultiGraph,
    degree,
    endpoint_multiset,
    induced_subgraph,
    is_eulerian,
    reach,
)
from .operators import EdgeSeparationRecord, edge_identification, edge_separation_step
from .rng import Rng

DEFAULT_EDGE_LIMIT = 24
DEFAULT_CYCLE_CAP = 10**6
# deepest recursion of the cycle walk and of the exhaustive search; a
# witness walk may call the search, whose walks nest in it, so the three
# together stay below the interpreter's default limit of 1000
MAX_SEARCH_DEPTH = 250
# most memo entries and listed cycles that the exhaustive search holds at
# once, a few hundred bytes each; graphs within the default edge budget
# peak near 1.5 * 10**5
MAX_SEARCH_STATES = 10**6


def _too_deep(what: str) -> TooLargeError:
    return TooLargeError(f"{what} deeper than {MAX_SEARCH_DEPTH} levels; the graph is too large for exhaustive search")


def _class_masks(ends: tuple) -> list[int]:
    """The bits of the copies of every parallel class, the edges with the
    same two endpoints, ordered by lowest copy."""
    masks: dict[tuple[int, int], int] = {}
    for e, (u, v) in enumerate(ends):
        key = (u, v) if u < v else (v, u)
        masks[key] = masks.get(key, 0) | 1 << e
    return list(masks.values())


def _incidence(g: MultiGraph, fields: Optional[list[tuple[int, int]]] = None) -> list[list[tuple[int, int, int, int]]]:
    """Per vertex, (mask, other end, other end's bit, unit) for every
    incident edge, in ascending edge id order; mask and unit are both the
    edge's bit. Given the (class mask, shift) fields of a count space, a
    vertex lists each class once instead, at its lowest copy: mask is the
    class's field and unit the field's lowest bit."""
    inc: list[list[tuple[int, int, int, int]]] = [[] for _ in range(g.n)]
    if fields is None:
        for e, (u, v) in enumerate(g.edges()):
            bit = 1 << e
            inc[u].append((bit, v, 1 << v, bit))
            inc[v].append((bit, u, 1 << u, bit))
        return inc
    for mask, shift in fields:
        u, v = g.endpoints((mask & -mask).bit_length() - 1)
        unit = 1 << shift
        field = ((1 << mask.bit_count().bit_length()) - 1) << shift
        inc[u].append((field, v, 1 << v, unit))
        inc[v].append((field, u, 1 << u, unit))
    return inc


class _Stop(Exception):
    """Ends a cycle walk at the cycle that its stop test accepts."""


def _cycles_through(inc: list, rem: int, e0: int, a: int, b: int, room: int = -1,
                    over: Optional[TooLargeError] = None,
                    stop: Optional[Callable[[int], bool]] = None) -> list[tuple[int, int]]:
    """All simple cycles through edge e0 = ab using only edges whose bit is set in rem.

    Returns (edge mask, vertex mask) pairs in walk order: depth first from
    b, incidence entries in order at every vertex. Each cycle appears
    exactly once because vertices never repeat and the start edge is fixed.
    An entry is open while rem has bits of its mask left, and taking it
    subtracts its unit, so on the incidence of a count space, where rem
    holds how many copies of each parallel class are left and e0 is the
    start class's shift, the walk lists each cycle of classes once, as the
    sum of its classes' units. With room >= 0, over is raised at cycle
    room + 1. With stop, the walk ends at the first cycle whose edge mask
    stop accepts and returns that cycle alone.
    """
    out: list[tuple[int, int]] = []
    emit = out.append
    if stop is not None:
        def emit(cycle: tuple[int, int]) -> None:
            if stop(cycle[0]):
                out.append(cycle)
                raise _Stop
    cap = MAX_SEARCH_DEPTH
    # counts down to 0 at cycle room + 1; from -1 it never gets there
    left = room + 1

    def walk(x: int, avail: int, seen: int, depth: int) -> None:
        nonlocal left
        # avail: what rem has left once the path is taken, so rem - avail is the path
        for mask, w, wbit, unit in inc[x]:
            if not avail & mask:
                continue
            if w == a:
                emit((rem - avail + unit, seen))
                left -= 1
                if not left:
                    raise over
                continue
            if seen & wbit:
                continue
            if depth >= cap:
                raise _too_deep("cycle walk")
            walk(w, avail - unit, seen | wbit, depth + 1)

    try:
        walk(b, rem - (1 << e0), (1 << a) | (1 << b), 1)
    except _Stop:
        pass
    return out


def _cycle(g: MultiGraph, inc: list, e0: int, mask: int) -> Cycle:
    """The cycle with edge mask `mask`, walked from e0's first stored endpoint."""
    a, x = g.endpoints(e0)
    steps = [(a, e0)]
    # the edges not walked yet
    mask ^= 1 << e0
    while x != a:
        for bit, w, _, _ in inc[x]:
            if mask & bit:
                steps.append((x, bit.bit_length() - 1))
                mask ^= bit
                x = w
                break
    return Cycle(tuple(steps))


@dataclass(frozen=True)
class OracleResult:
    c_min: int
    nu_max: int
    min_witness: CycleDecomposition
    max_witness: CycleDecomposition


def oracle_cycle_numbers(g: MultiGraph, edge_limit: int = DEFAULT_EDGE_LIMIT) -> OracleResult:
    """Exact minimum and maximum cycle-decomposition sizes, with witnesses.

    Any graph whose edge set is a disjoint union of cycles (in particular
    every connected even graph) decomposes, so the search never dead-ends.
    Exponential in m, hence the budget.

    The copies of a parallel class, the edges with the same two endpoints,
    are interchangeable, so the (c, nu) of a residual edge set depends only
    on how many copies of each class it has left. The search runs on these
    counts, one binary field per class in the order of their lowest copies,
    and memoizes (c, nu) under them. It branches on the cycles of classes
    through the first class with a copy left: one walk on the classes,
    each crossed once, and a digon within that class is one cycle, not one
    per pair of copies. When no two edges are parallel, the counts are the
    edge set itself.

    Each witness is unwound on the real residual, from the whole edge set
    on: the walk through the lowest remaining edge runs in its edge-level
    order and stops at the first cycle that leaves a residual of value one
    less than the current one. That is the cycle a search over edge subsets
    records under a first-strict-improvement rule. Each value is looked up
    under its residual's counts, and one missing from the memo is solved
    through it. A residual of value 1 is one cycle, and when c == nu every
    cycle fits both extremes, so the two witnesses coincide.

    A state is a memo entry or a cycle listed by a branching still open;
    TooLargeError is raised before they together pass MAX_SEARCH_STATES. A
    witness walk may pass as many cycles as the memo leaves room for.
    """
    if g.m > edge_limit:
        raise TooLargeError(f"m={g.m} exceeds the edge budget {edge_limit}")
    if not is_eulerian(g):
        raise NotEulerianError("cycle numbers are defined for connected even graphs")
    if g.m == 0:
        empty = CycleDecomposition(())
        return OracleResult(0, 0, empty, empty)

    ends = tuple(g.edges())
    full = (1 << g.m) - 1
    inc = _incidence(g)
    masks = _class_masks(ends)
    # (class mask, shift) of every class's field; per bit of the count
    # space, the shift and endpoints of its class
    fields: list[tuple[int, int]] = []
    head: list[tuple[int, int, int]] = []
    if len(masks) == g.m:
        # no two edges are parallel: the counts are the edge set
        counts, count_inc = full, inc
        head = [(e, a, b) for e, (a, b) in enumerate(ends)]
    else:
        for mask in masks:
            a, b = ends[(mask & -mask).bit_length() - 1]
            fields.append((mask, len(head)))
            head += [(len(head), a, b)] * mask.bit_count().bit_length()
        counts = sum(mask.bit_count() << shift for mask, shift in fields)
        count_inc = _incidence(g, fields)

    # counts -> (c, nu)
    memo: dict[int, tuple[int, int]] = {}
    # cycles listed by the branchings still open
    held = 0
    over = TooLargeError(f"more than {MAX_SEARCH_STATES} memo entries and listed cycles; "
                         "the graph is too large for exhaustive search")

    def solve(rem: int, depth: int) -> tuple[int, int]:
        nonlocal held
        hit = memo.get(rem)
        if hit is not None:
            return hit
        if depth >= MAX_SEARCH_DEPTH:
            raise _too_deep("subset search")
        cycles = _cycles_through(count_inc, rem, *head[(rem & -rem).bit_length() - 1],
                                 MAX_SEARCH_STATES - len(memo) - held, over)
        held += len(cycles)
        c, nu = g.m, -1
        for cmask, _ in cycles:
            rest = rem - cmask  # the cycle lies in rem
            if rest:
                c2, n2 = solve(rest, depth + 1)
            else:
                c2 = n2 = 0
            if c2 < c:
                c = c2
            if n2 > nu:
                nu = n2
        assert nu >= 0, "even residual graph must contain a cycle"
        held -= len(cycles)
        res = memo[rem] = (1 + c, 1 + nu)
        return res

    c, nu = solve(counts, 0)

    def unwind(branch: int, target: int) -> CycleDecomposition:
        cycles: list[Cycle] = []
        rem = full

        def fits(cmask: int) -> bool:
            rest = rem ^ cmask
            key = 0 if fields else rest
            for mask, shift in fields:
                key |= (rest & mask).bit_count() << shift
            # a cycle that is all of rem fits only at target 1, taken whole below
            return key and solve(key, len(cycles) + 1)[branch] == target - 1

        while rem:
            e0 = (rem & -rem).bit_length() - 1
            if target == 1:
                # what is left is one cycle
                cmask = rem
            else:
                ((cmask, _),) = _cycles_through(inc, rem, e0, *ends[e0], MAX_SEARCH_STATES - len(memo), over, fits)
            cycles.append(_cycle(g, inc, e0, cmask))
            rem ^= cmask
            target -= 1
        return CycleDecomposition(tuple(cycles))

    low = unwind(0, c)
    # with c == nu every cycle leaves a residual of value c - 1 in both
    # extremes, so both walks stop at the same cycles
    return OracleResult(c, nu, low, low if c == nu else unwind(1, nu))


def _all_cycles(g: MultiGraph, edge_limit: int, cycle_cap: int) -> tuple[list, list[tuple[int, int, int]]]:
    """(incidence, [(smallest edge id, edge mask, vertex mask)]) of every simple cycle."""
    if g.m > edge_limit:
        raise TooLargeError(f"m={g.m} exceeds the edge budget {edge_limit}")
    over = TooLargeError(f"more than {cycle_cap} simple cycles, the cycle cap")
    inc = _incidence(g)
    out: list[tuple[int, int, int]] = []
    full = (1 << g.m) - 1
    for e0, (a, b) in enumerate(g.edges()):
        cycles = _cycles_through(inc, full >> e0 << e0, e0, a, b, max(cycle_cap - len(out), 0), over)
        out.extend((e0, emask, vmask) for emask, vmask in cycles)
    return inc, out


def enumerate_simple_cycles(g: MultiGraph, edge_limit: int = DEFAULT_EDGE_LIMIT,
                            cycle_cap: int = DEFAULT_CYCLE_CAP) -> list[Cycle]:
    """Every simple cycle of g, each exactly once.

    Cycles are grouped by their smallest edge id, ascending; the cap guards
    against blowups on dense inputs.
    """
    inc, cycles = _all_cycles(g, edge_limit, cycle_cap)
    return [_cycle(g, inc, e0, emask) for e0, emask, _ in cycles]


def has_triple_intersecting_cycle_pair(g: MultiGraph, edge_limit: int = DEFAULT_EDGE_LIMIT,
                                       cycle_cap: int = DEFAULT_CYCLE_CAP) -> Optional[tuple[Cycle, Cycle]]:
    """First pair of edge-disjoint cycles sharing at least three vertices.

    Returns the pair, or None when no such pair exists. Pairs are scanned in
    the deterministic order of enumerate_simple_cycles.
    """
    inc, cycles = _all_cycles(g, edge_limit, cycle_cap)
    for i, (e1, m1, v1) in enumerate(cycles):
        for j in range(i + 1, len(cycles)):
            e2, m2, v2 = cycles[j]
            if not m1 & m2 and (v1 & v2).bit_count() >= 3:
                return _cycle(g, inc, e1, m1), _cycle(g, inc, e2, m2)
    return None


def is_treewidth_at_most_2(g: MultiGraph) -> bool:
    """Treewidth <= 2 of any multigraph: exactly when _sp_tree reduces each
    block, an edge list of one lowpoint DFS relabelled locally. A block of
    fewer than six edges has no K4 minor, so it needs no reduction."""
    raw_blocks, _, _, _ = _lowpoint(g)
    ends = tuple(g.edges())
    return all(len(blk) < 6 or _sp_tree(*_local(ends, blk)) is not None for blk in raw_blocks)


def _local(ends: tuple, blk: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """(vertex count, edge list) of the edges blk, vertices numbered as met."""
    ids: dict[int, int] = {}
    edges = [(ids.setdefault(u, len(ids)), ids.setdefault(v, len(ids))) for u, v in map(ends.__getitem__, blk)]
    return len(ids), edges


def _sp_tree(n: int, edges) -> Optional[tuple[list[tuple], int]]:
    """The series-parallel reduction of a biconnected multigraph on 0..n-1.

    Suppresses vertices with two neighbours and merges the parallel edges
    this makes until two vertices are left; None if it gets stuck, exactly
    when the treewidth exceeds 2 (Valdes, Tarjan & Lawler 1982). Returns
    (nodes, root). A composite edge is a bundle of q plain edges, the int q,
    or nodes[i], referred to as ~i; two plain edges in series make a plain
    edge and bundles merge into a bundle. Nodes come in creation order:
    series (c1, c2, par, cap) and parallel (c1, p1, cap1, c2, p2, cap2,
    cap), with p a composite's degree parity at its ends and cap the least
    of its degree and the degree outside it at either end.
    """
    # nb[v][w] = (edges of the composite v-w at v, composite)
    nb: list[dict] = [{} for _ in range(n)]
    for u, v in edges:
        nb[u][v] = nb[u].get(v, 0) + 1
        nb[v][u] = nb[v].get(u, 0) + 1
    deg = [sum(nv.values()) for nv in nb]
    for nv in nb:
        for w, q in nv.items():
            nv[w] = (q, q)
    nodes: list[tuple] = []
    alive = n
    queue = [v for v in range(n) if len(nb[v]) == 2]
    while queue and alive > 2:
        x = queue.pop()
        nx = nb[x]
        if len(nx) != 2:
            continue
        (a, (_, ca)), (b, (_, cb)) = nx.items()
        na, nbb = nb[a], nb[b]
        da = na.pop(x)[0]
        db = nbb.pop(x)[0]
        nx.clear()
        alive -= 1
        cap = min(deg[a] - da, deg[b] - db, da, db)
        if ca == 1 and cb == 1:
            comp = 1
        else:
            nodes.append((ca, cb, da & 1, cap))
            comp = -len(nodes)
        old = na.get(b)
        if old is not None:
            da2, c2 = old
            db2 = nbb[a][0]
            if comp > 0 and c2 > 0:
                comp += c2
            else:
                nodes.append((comp, da & 1, cap, c2, da2 & 1, min(deg[a] - da2, deg[b] - db2, da2, db2),
                              min(deg[a] - da - da2, deg[b] - db - db2, da + da2, db + db2)))
                comp = -len(nodes)
            da, db = da + da2, db + db2
        na[b] = (da, comp)
        nbb[a] = (db, comp)
        if len(na) == 2:
            queue.append(a)
        if len(nbb) == 2:
            queue.append(b)
    if alive > 2:
        return None
    return nodes, next((comp for nv in nb for _, comp in nv.values()), 0)


def series_parallel_numbers(g: MultiGraph, stop_at_split: bool = False) -> Optional[tuple[int, int]]:
    """Exact (c, nu) of a biconnected even graph by series-parallel tables.

    Returns None when _sp_tree cannot reduce g, that is when its treewidth
    exceeds 2; otherwise one pass over its nodes builds their tables.

    A composite edge between terminals s and t stands for the subgraph H of
    the edges it has absorbed. H meets the rest of g only at s and t, so a
    cycle of a decomposition of g either lies in H or meets H in one simple
    s-t path. Its table holds, for k = p, p + 2, ..., the fewest and the
    most cycles when E(H) splits into cycles plus k edge-disjoint s-t paths,
    where p is the parity of H's degree at s; every such k is reachable,
    since two paths together split into cycles. A path leaves H at both
    ends, so a table stops at the smaller outside degree of its terminals,
    and at H's own degree there. Entries are stored as G[k] = 2 f[k] + k:
    - a bundle of q plain edges has G[k] = q for every k <= q;
    - series through a vertex x that has exactly two neighbours: every path
      runs on through x, so G[k] = G1[k] + G2[k] - k;
    - parallel: j path pairs close into j cycles, k = k1 + k2 - 2j, and
      G[k] is the best G1[k1] + G2[k2] over |k1 - k2| <= k <= k1 + k2.
    The root's entry at k = 0 is (2c, 2nu).

    With stop_at_split the pass stops at the first node H whose first
    entries differ, and returns a pair with c != nu: E(H) splits into
    cycles plus p paths in two sizes, and g - E(H), whose only odd
    vertices are s and t when p = 1, splits into p s-t paths plus cycles;
    each path pair closes into one cycle, so g has decompositions of two
    sizes. Only c != nu is meaningful then.
    """
    tree = _sp_tree(g.n, g.edges())
    if tree is None:
        return None
    nodes, root = tree
    tables: list[tuple[list[int], list[int]]] = []
    for node in nodes:
        if len(node) == 4:
            c1, c2, par, cap = node
            table = _series(c1 if c1 > 0 else tables[~c1], c2 if c2 > 0 else tables[~c2], par, cap)
        else:
            c1, p1, cap1, c2, p2, cap2, cap = node
            table = _parallel(c1 if c1 > 0 else tables[~c1], p1, cap1, c2 if c2 > 0 else tables[~c2], p2, cap2, cap)
        if stop_at_split and table[0][0] != table[1][0]:
            return table[0][0] // 2, table[1][0] // 2
        tables.append(table)
    lo, hi = _rows(root if root >= 0 else tables[~root], 0, 0)
    return lo[0] // 2, hi[0] // 2


def _rows(comp, par: int, cap: int) -> tuple[list[int], list[int]]:
    """(lo, hi) rows of a composite; a plain bundle gets rows up to cap."""
    if type(comp) is int:
        row = [comp] * ((min(comp, cap) - par) // 2 + 1)
        return row, row
    return comp


def _series(c1, c2, par: int, cap: int):
    """Join composites c1 and c2 of parity par through a suppressed vertex."""
    lo1, hi1 = _rows(c1, par, cap)
    lo2, hi2 = _rows(c2, par, cap)
    size = min(len(lo1), len(lo2), (cap - par) // 2 + 1)
    lo = [lo1[i] + lo2[i] - par - 2 * i for i in range(size)]
    if lo1 is hi1 and lo2 is hi2:
        return lo, lo
    return lo, [hi1[i] + hi2[i] - par - 2 * i for i in range(size)]


def _parallel(c1, p1: int, cap1: int, c2, p2: int, cap2: int, cap: int):
    """Merge composites ci of parity pi and own cap capi into one cut at cap."""
    lo1, hi1 = _rows(c1, p1, cap1)
    lo2, hi2 = _rows(c2, p2, cap2)
    par = (p1 + p2) & 1
    top = min(p1 + p2 + 2 * (len(lo1) + len(lo2) - 2), cap)
    size = (top - par) // 2 + 1
    if lo1 is hi1 and lo2 is hi2 and min(lo1) == max(lo1) and min(lo2) == max(lo2):
        # every split has the same value: the merge is flat as well
        row = [lo1[0] + lo2[0]] * size
        return row, row
    lo = [1 << 62] * size
    hi = [-1] * size
    for i1 in range(len(lo1)):
        k1 = p1 + 2 * i1
        l1 = lo1[i1]
        h1 = hi1[i1]
        for i2 in range(len(lo2)):
            k2 = p2 + 2 * i2
            first = k1 - k2 if k1 > k2 else k2 - k1
            if first > top:
                if k2 > k1:
                    break
                continue
            last = k1 + k2 if k1 + k2 < top else top
            s = l1 + lo2[i2]
            t = h1 + hi2[i2]
            for i in range((first - par) >> 1, ((last - par) >> 1) + 1):
                if s < lo[i]:
                    lo[i] = s
                if t > hi[i]:
                    hi[i] = t
    return lo, hi


def is_class_H(g: MultiGraph) -> bool:
    """Biconnected, 4-regular, treewidth at most 2."""
    return (
        is_biconnected(g)
        and all(degree(g, v) == 4 for v in range(g.n))
        and _sp_tree(g.n, g.edges()) is not None
    )


def is_class_H_prime(g: MultiGraph) -> bool:
    """Connected, even, maximum degree at most 4, treewidth at most 2."""
    return (
        is_eulerian(g)
        and all(degree(g, v) <= 4 for v in range(g.n))
        and is_treewidth_at_most_2(g)
    )


def is_closed_necklace(g: MultiGraph) -> bool:
    """A cycle with every edge doubled: n = 2 means two parallel pairs."""
    if g.n < 2:
        return False
    if g.n == 2:
        return g.m == 4
    if g.m != 2 * g.n:
        return False
    for v in range(g.n):
        if len(g.incident(v)) != 4:
            return False
        counts: dict[int, int] = {}
        for e in g.incident(v):
            w = g.other(e, v)
            counts[w] = counts.get(w, 0) + 1
        if len(counts) != 2 or any(c != 2 for c in counts.values()):
            return False
    return len(connected_components(g)) == 1


def _iter_disjoint_two_cuts(g: MultiGraph):
    """Yield 2-cuts {e1, e2} with four distinct endpoints, lexicographically."""
    m = g.m
    for e1 in range(m):
        a1, b1 = g.endpoints(e1)
        for e2 in range(e1 + 1, m):
            a2, b2 = g.endpoints(e2)
            if a2 in (a1, b1) or b2 in (a1, b1):
                continue
            side = reach(g, a1, skip_edges=(e1, e2))
            if not side[b1] and side[a2] != side[b2]:
                yield (e1, e2)


def find_disjoint_two_cut(g: MultiGraph) -> Optional[tuple[int, int]]:
    """First 2-cut with four distinct endpoints, or None.

    Defined on class H, the biconnected 4-regular graphs of treewidth at
    most 2; there None identifies exactly the closed necklaces. The pair
    scan is exhaustive, ordered by (e1, e2).
    """
    if not is_class_H(g):
        raise PreconditionViolatedError("need a biconnected 4-regular graph of treewidth at most 2")
    return next(_iter_disjoint_two_cuts(g), None)


@dataclass(frozen=True)
class NecklaceTree:
    """Separation tree of a biconnected 4-regular treewidth-2 graph.

    Leaves hold closed necklaces. An inner node stores the 2-cut it split
    on, the separation record, each part's vertex ids inside this node's
    graph, and the (edge, endpoint) anchors that rebuild this graph from the
    parts by edge identification.
    """

    graph: MultiGraph
    cut: Optional[tuple[int, int]]
    record: Optional[EdgeSeparationRecord]
    part_vertex_ids: tuple[tuple[int, ...], ...]
    replay_anchors: tuple[tuple[int, int], ...]
    parts: tuple["NecklaceTree", ...]

    def leaves(self) -> list["NecklaceTree"]:
        """The leaves, left to right."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.parts:
                stack.extend(reversed(node.parts))
            else:
                out.append(node)
        return out


def decompose_class_H(g: MultiGraph, cut_seed: Optional[int] = None) -> NecklaceTree:
    """Split along disjoint 2-cuts until every piece is a closed necklace.

    Deterministic by default (first cut in scan order). With cut_seed the
    cut at every node is drawn uniformly from all valid ones; the leaf
    multiset must not depend on that choice.
    """
    if not is_class_H(g):
        raise NotClassHError("need a biconnected 4-regular graph of treewidth at most 2")
    return _decompose_h(g, None if cut_seed is None else Rng(cut_seed))


def _decompose_h(g: MultiGraph, rng) -> NecklaceTree:
    if is_closed_necklace(g):
        return NecklaceTree(g, None, None, (), (), ())
    if rng is None:
        cut = next(_iter_disjoint_two_cuts(g), None)
    else:
        cuts = list(_iter_disjoint_two_cuts(g))
        cut = cuts[rng.below(len(cuts))] if cuts else None
    if cut is None:
        raise GraphError("no disjoint 2-cut in a graph that is not a closed necklace")
    sep, rec = edge_separation_step(g, cut)
    side = set(rec.side)
    rest = tuple(v for v in range(g.n) if v not in side)
    g_a, verts_a, edges_a = induced_subgraph(sep, rec.side)
    g_b, verts_b, edges_b = induced_subgraph(sep, rest)
    anchor_a = (edges_a.index(rec.f1), verts_a.index(rec.pair1[0]))
    anchor_b = (edges_b.index(rec.f2), verts_b.index(rec.pair2[0]))
    left = _decompose_h(g_a, rng)
    right = _decompose_h(g_b, rng)
    return NecklaceTree(
        graph=g,
        cut=cut,
        record=rec,
        part_vertex_ids=(verts_a, verts_b),
        replay_anchors=(anchor_a, anchor_b),
        parts=(left, right),
    )


def verify_necklace_replay(tree: NecklaceTree) -> bool:
    """Check that edge-identifying the parts back together rebuilds each node.

    Compares endpoint multisets under the stored vertex id maps. Leaves must
    be closed necklaces. Nodes are checked children first, left to right,
    and the check stops at the first that fails.
    """
    # (node, whether its parts are checked already)
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if not node.parts:
            if not is_closed_necklace(node.graph):
                return False
        elif not expanded:
            stack.append((node, True))
            stack.extend((part, False) for part in reversed(node.parts))
        elif not _rebuilds(node):
            return False
    return True


def _rebuilds(tree: NecklaceTree) -> bool:
    """Whether tree's two parts, joined at its replay anchors, give its graph."""
    g_a = tree.parts[0].graph
    g_b = tree.parts[1].graph
    (ea, ua), (eb, ub) = tree.replay_anchors
    h, _ = edge_identification(g_a, ea, ua, g_b, eb, ub)
    if h.n != tree.graph.n:
        return False
    ids_a, ids_b = tree.part_vertex_ids
    back = list(ids_a) + list(ids_b)
    pairs = tuple(sorted(tuple(sorted((back[a], back[b]))) for a, b in h.edges()))
    return (h.n, pairs) == endpoint_multiset(tree.graph)
