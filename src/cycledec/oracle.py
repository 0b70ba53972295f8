"""Exhaustive reference engines for small graphs.

Everything here trades time for certainty: exact cycle-decomposition numbers
by memoized search over edge subsets, a full scan for edge-disjoint cycle
pairs meeting in three or more vertices, a kernelization decider for
treewidth at most 2, and the necklace-tree decomposition of biconnected
4-regular treewidth-2 graphs. Budgets are explicit and overruns raise
instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import GraphError, NotClassHError, NotEulerianError, PreconditionViolatedError, TooLargeError
from .connectivity import connected_components, is_biconnected
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
# deepest recursion of the cycle walk and of the subset search; the two nest,
# so together they stay well below the interpreter's default limit of 1000
MAX_SEARCH_DEPTH = 250


def _too_deep(what: str) -> TooLargeError:
    return TooLargeError(f"{what} deeper than {MAX_SEARCH_DEPTH} levels; the graph is too large for exhaustive search")


def _simple_cycles_through(g: MultiGraph, rem: int, e0: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """All simple cycles through edge e0 using only edges whose bit is set in rem.

    Returns (edge mask, steps) pairs; steps walk the cycle starting at e0's
    first stored endpoint. Each cycle appears exactly once because vertices
    never repeat and the start edge is fixed.
    """
    a, b = g.endpoints(e0)
    out: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    seen = {a, b}
    steps: list[tuple[int, int]] = [(a, e0)]
    cap = MAX_SEARCH_DEPTH

    def walk(x: int, mask: int) -> None:
        for e in g.incident(x):
            if not (rem >> e) & 1 or (mask >> e) & 1:
                continue
            w = g.other(e, x)
            if w == a:
                out.append((mask | (1 << e), tuple(steps) + ((x, e),)))
                continue
            if w in seen:
                continue
            if len(steps) >= cap:
                raise _too_deep("cycle walk")
            seen.add(w)
            steps.append((x, e))
            walk(w, mask | (1 << e))
            steps.pop()
            seen.discard(w)

    walk(b, 1 << e0)
    return out


@dataclass(frozen=True)
class OracleResult:
    c_min: int
    nu_max: int
    min_witness: CycleDecomposition
    max_witness: CycleDecomposition


def oracle_cycle_numbers(g: MultiGraph, edge_limit: int = DEFAULT_EDGE_LIMIT) -> OracleResult:
    """Exact minimum and maximum cycle-decomposition sizes, with witnesses.

    Memoized over subsets of the edge set, branching on the cycle through
    the lowest remaining edge id; any graph whose edge set is a disjoint
    union of cycles (in particular every connected even graph) decomposes,
    so the search never dead-ends. Exponential in m, hence the budget.
    """
    if g.m > edge_limit:
        raise TooLargeError(f"m={g.m} exceeds the edge budget {edge_limit}")
    if not is_eulerian(g):
        raise NotEulerianError("cycle numbers are defined for connected even graphs")
    empty = CycleDecomposition(())
    if g.m == 0:
        return OracleResult(0, 0, empty, empty)

    memo: dict[int, tuple[int, int, tuple[Cycle, ...], tuple[Cycle, ...]]] = {}

    def solve(rem: int, depth: int) -> tuple[int, int, tuple[Cycle, ...], tuple[Cycle, ...]]:
        if rem == 0:
            return 0, 0, (), ()
        hit = memo.get(rem)
        if hit is not None:
            return hit
        if depth >= MAX_SEARCH_DEPTH:
            raise _too_deep("subset search")
        e0 = (rem & -rem).bit_length() - 1
        best: Optional[list] = None
        for cmask, steps in _simple_cycles_through(g, rem, e0):
            c2, n2, wmin, wmax = solve(rem & ~cmask, depth + 1)
            cyc = Cycle(steps)
            if best is None:
                best = [1 + c2, 1 + n2, (cyc,) + wmin, (cyc,) + wmax]
            else:
                if 1 + c2 < best[0]:
                    best[0] = 1 + c2
                    best[2] = (cyc,) + wmin
                if 1 + n2 > best[1]:
                    best[1] = 1 + n2
                    best[3] = (cyc,) + wmax
        assert best is not None, "even residual graph must contain a cycle"
        res = (best[0], best[1], best[2], best[3])
        memo[rem] = res
        return res

    c, nu, wmin, wmax = solve((1 << g.m) - 1, 0)
    return OracleResult(c, nu, CycleDecomposition(wmin), CycleDecomposition(wmax))


def enumerate_simple_cycles(g: MultiGraph, edge_limit: int = DEFAULT_EDGE_LIMIT,
                            cycle_cap: int = DEFAULT_CYCLE_CAP) -> list[Cycle]:
    """Every simple cycle of g, each exactly once.

    Cycles are grouped by their smallest edge id, ascending; the cap guards
    against blowups on dense inputs.
    """
    if g.m > edge_limit:
        raise TooLargeError(f"m={g.m} exceeds the edge budget {edge_limit}")
    out: list[Cycle] = []
    full = (1 << g.m) - 1
    for e0 in range(g.m):
        rem = full & ~((1 << e0) - 1)
        for _, steps in _simple_cycles_through(g, rem, e0):
            out.append(Cycle(steps))
            if len(out) > cycle_cap:
                raise TooLargeError(f"more than {cycle_cap} simple cycles")
    return out


def has_triple_intersecting_cycle_pair(g: MultiGraph, edge_limit: int = DEFAULT_EDGE_LIMIT,
                                       cycle_cap: int = DEFAULT_CYCLE_CAP) -> Optional[tuple[Cycle, Cycle]]:
    """First pair of edge-disjoint cycles sharing at least three vertices.

    Returns the pair, or None when no such pair exists. Pairs are scanned in
    the deterministic order of enumerate_simple_cycles.
    """
    cycles = enumerate_simple_cycles(g, edge_limit=edge_limit, cycle_cap=cycle_cap)
    masks = []
    vsets = []
    for cyc in cycles:
        mask = 0
        for e in cyc.edge_ids:
            mask |= 1 << e
        masks.append(mask)
        vsets.append(frozenset(cyc.vertex_ids))
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            if masks[i] & masks[j]:
                continue
            if len(vsets[i] & vsets[j]) >= 3:
                return cycles[i], cycles[j]
    return None


def is_treewidth_at_most_2(g: MultiGraph) -> bool:
    """Decide treewidth <= 2 by exhaustive degree-<=2 kernelization.

    Parallel edges collapse into the underlying simple graph first (they
    never change treewidth beyond width 1). Removing a vertex of degree at
    most 2 and joining its neighbours preserves the property, and the
    reduction is confluent, so the graph empties iff treewidth is <= 2.
    """
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    alive = g.n
    removed = bytearray(g.n)
    queue = [v for v in range(g.n) if len(adj[v]) <= 2]
    while queue:
        v = queue.pop()
        if removed[v] or len(adj[v]) > 2:
            continue
        ns = tuple(adj[v])
        removed[v] = 1
        adj[v].clear()
        for w in ns:
            adj[w].discard(v)
        if len(ns) == 2:
            a, b = ns
            adj[a].add(b)
            adj[b].add(a)
        for w in ns:
            if len(adj[w]) <= 2:
                queue.append(w)
        alive -= 1
    return alive == 0


def is_class_H(g: MultiGraph) -> bool:
    """Biconnected, 4-regular, treewidth at most 2."""
    return (
        is_biconnected(g)
        and all(degree(g, v) == 4 for v in range(g.n))
        and is_treewidth_at_most_2(g)
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
        if not self.parts:
            return [self]
        return [leaf for part in self.parts for leaf in part.leaves()]


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
    rest = tuple(v for v in range(g.n) if v not in set(rec.side))
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
    be closed necklaces.
    """
    if not tree.parts:
        return is_closed_necklace(tree.graph)
    if not all(verify_necklace_replay(part) for part in tree.parts):
        return False
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
