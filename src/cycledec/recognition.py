"""Recognition of graphs whose cycle-decomposition size is forced.

A connected even graph has exactly one possible decomposition size iff every
final component of the vertex-edge separation worklist, run per biconnected
block, is an Eulerian multiedge. The worklist repeatedly picks a vertex v,
finds a bridge e of the graph minus v, and undoes one vertex-edge
identification there; both halves stay even and biconnected, so the process
needs no global restarts and finishes in at most n - 2 steps per block.

The mutable working graph keeps every vertex id ever created and never
reuses edge ids, which makes traces exactly replayable. It also keeps a
component map: one walk names the components of the input, and each step
gives the half that its probe named a new id, so the final components are
read off the map without walking again.

A probe at v asks for the smallest-id bridge of K - v, where K is the
component of v. Both ways of answering it use cycle-space labels
(Pritchard & Thurimella, "Fast computation of small cuts via cycle space
sampling", ACM TALG 2011). Along a spanning tree, each non-tree edge takes
a fixed 64-bit hash of its id and each tree edge the XOR of the labels of
the non-tree edges that close a cycle through it. The labels at every
vertex then XOR to 0, so the labels of every cut δ(X) XOR to 0.

* Fallback. Labelled along a spanning forest of K - v itself, a bridge e
  of K - v is a cut on its own: its side X has no other edge leaving it,
  no non-tree edge crosses, and label(e) is 0. So the zero-label edges hold every
  bridge, and the first of them in id order that a walk from both of its
  ends confirms is the answer. A collision costs a walk, never the answer.
* Block labels. Labelled once along a tree of K, with v in it: if e is a
  bridge of K - v with side X, then δ(X) in K is e plus some edges D at
  v, so label(e) is the XOR of label(D), and every bridge has a label in
  the span of the labels at v. A probe that finds no edge away from v
  with such a label is an exact null; the smallest-id candidate is
  confirmed by the same walk, and a refuted one goes to the fallback.
  The labels only decide how fast an answer comes, never which answer,
  so traces do not depend on them.
* Split invariant. A step deletes the bridge e*, splits v into v1 and v2
  and adds f1 = u1v1 and f2 = u2v2, both labelled label(e*). The labels at
  v towards X XOR to label(e*) (the cut δ(X) above), so the labels at v1,
  at v2, at u1 and at u2 still XOR to 0, and every other vertex keeps its
  edges: no block label ever changes. The confirming walk stops at the
  side it exhausts first, the smaller one; that half takes the new
  component id and its edges leave the old component's label buckets, so
  an edge moves O(log m) times.
* Cost rule. A probe looks up the 2**rank sums of the block labels at v
  only while that is fewer than the edges of K - v that a walk would
  cross; otherwise it takes the fallback. The working graph builds its
  block labels on the first probe that the rule admits, so blocks too
  small for it never build them. Before the labels exist the rank is
  unknown, so the rule counts all 2**deg(v) subsets of the edges at v.

The yes/no verdict and the numbers take a shorter route that builds no
trace: the series-parallel tables of oracle.series_parallel_numbers answer
every block of treewidth at most 2, and a block of larger treewidth is not
unique. Witnesses come from the worklist, built when first asked for; the
numbers of a block of larger treewidth come from its worklist components.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (
    ComponentTooLargeError,
    GraphError,
    InvalidVertexError,
    NotBiconnectedError,
    NotEulerianError,
    OddDegreeError,
)
from .connectivity import Block, blocks, is_biconnected
from .multigraph import MultiGraph, degree, is_eulerian, is_eulerian_multiedge
from .operators import VESeparator, VeStep, ve_separation_step
from .oracle import DEFAULT_EDGE_LIMIT, oracle_cycle_numbers, series_parallel_numbers
from .rng import Rng


@dataclass(frozen=True)
class DecompositionTrace:
    """Steps of one worklist run and the final components it left.

    Each final component is a block of the final graph, recorded with its
    working-space vertex and edge ids.
    """

    input_n: int
    input_m: int
    steps: tuple[VeStep, ...]
    components: tuple[Block, ...]
    final_edge_ids: tuple[int, ...]

    @property
    def final_components(self) -> tuple[MultiGraph, ...]:
        return tuple(comp.graph for comp in self.components)


class RecognitionVerdict:
    """Answer of the forced-size test.

    `witness` is the first final component that is not an Eulerian
    multiedge when the worklist runs, in the caller's order, on the first
    failing block; None on a positive answer. It is built on first access.
    `block_verdicts` holds (block, unique) for every block decided, in
    block order.
    """

    __slots__ = ("unique", "block_verdicts", "_witness", "_failing_block", "_order_seed")

    def __init__(self, unique: bool, failing_block: Optional[MultiGraph] = None,
                 order_seed: Optional[int] = None,
                 block_verdicts: tuple[tuple[MultiGraph, bool], ...] = ()) -> None:
        self.unique = unique
        self.block_verdicts = block_verdicts
        self._witness: Optional[MultiGraph] = None
        self._failing_block = failing_block
        self._order_seed = order_seed

    @property
    def witness(self) -> Optional[MultiGraph]:
        if self._failing_block is not None:
            _, trace = ve_components(self._failing_block, order_seed=self._order_seed)
            self._witness = next((c.graph for c in trace.components if not is_eulerian_multiedge(c.graph)), None)
            if self._witness is None:
                raise RuntimeError("the verdict route and the worklist disagree on a block")
            self._failing_block = None
        return self._witness

    def __bool__(self) -> bool:
        return self.unique

    def __repr__(self) -> str:
        return f"RecognitionVerdict(unique={self.unique})"


class _WorkGraph:
    """Append-only adjacency: adj[v] maps edge id to the other endpoint.

    Deleted edges keep their slot in `endpoints` as None so ids stay stable.
    `comp[x]` is vertex x's component and `size[c]` component c's edge
    count; one walk sets them, or none on an input that the caller knows to
    be connected, and every split updates them. `final` is set when every
    edge of the input has a parallel copy: the edge of a vertex-edge
    separator is a bridge of the graph minus a vertex, and a parallel copy
    survives that deletion, so no probe can hit and the graph stays as it
    is. `label[e]` is edge e's cycle-space label and
    `buckets[c]` component c's map from a label to the ascending ids of the
    edges that carry it, or None for a component whose probes can never
    pass the cost rule; both stay None until the first probe that the cost
    rule admits builds them.
    """

    __slots__ = ("adj", "endpoints", "final", "comp", "size", "label", "buckets")

    def __init__(self, g: MultiGraph, connected: bool = False) -> None:
        self.endpoints: list[Optional[tuple[int, int]]] = list(g._endpoints)
        self.adj: list[dict[int, int]] = [{} for _ in range(g.n)]
        for e, (u, v) in enumerate(self.endpoints):
            self.adj[u][e] = v
            self.adj[v][e] = u
        pairs = Counter((u, v) if u < v else (v, u) for u, v in self.endpoints)
        self.final = 1 not in pairs.values()
        self.label: Optional[list[int]] = None
        self.buckets: Optional[list[Optional[dict[int, list[int]]]]] = None
        if connected:
            self.comp, self.size = [0] * g.n, [g.m]
            return
        self.comp = comp = [-1] * g.n
        self.size: list[int] = []
        for r in range(g.n):
            if comp[r] >= 0:
                continue
            c = len(self.size)
            comp[r] = c
            part = [r]
            for x in part:
                for w in self.adj[x].values():
                    if comp[w] < 0:
                        comp[w] = c
                        part.append(w)
            self.size.append(sum(len(self.adj[x]) for x in part) // 2)


_MASK64 = (1 << 64) - 1


def _edge_label(e: int) -> int:
    """Fixed 64-bit hash of an edge id. Integer and tuple hashes do not
    depend on the interpreter's hash seed."""
    return hash((e, 0x2545F4914F6CDD1D)) & _MASK64


def _labels_pay(rank: int, edges: int) -> bool:
    """Looking up the 2**rank label sums at a vertex costs less than a walk
    across `edges` edges."""
    return (1 << rank) < edges


def _tree_labels(adj: list[dict[int, int]], roots: Iterable[int], skip: int) -> dict[int, int]:
    """Cycle-space labels of the components of the roots in the graph minus skip.

    Along a BFS tree of each component, from the first of its roots, each
    non-tree edge gets _edge_label of its id and each tree edge the XOR of
    the non-tree labels at the vertices below it. The labels at every
    vertex then XOR to 0, and so do those of every cut; a bridge is a cut
    on its own, so its label is 0. Returns edge id -> label.
    """
    up: dict[int, int] = {}
    acc: dict[int, int] = {}
    label: dict[int, int] = {}
    order: list[int] = []
    for root in roots:
        if root in up:
            continue
        up[root] = -1
        acc[root] = 0
        part = [root]
        for x in part:
            for e, w in adj[x].items():
                if w == skip:
                    continue
                if w not in up:
                    up[w] = e
                    acc[w] = 0
                    part.append(w)
                elif e != up[x] and e not in label:
                    label[e] = h = _edge_label(e)
                    acc[x] ^= h
                    acc[w] ^= h
        order += part
    for x in reversed(order):
        e = up[x]
        if e >= 0:
            label[e] = h = acc[x]
            acc[adj[x][e]] ^= h
    return label


def _build_labels(work: _WorkGraph) -> None:
    """Label every component of the working graph and bucket its edges."""
    work.label = label = [0] * len(work.endpoints)
    for e, h in _tree_labels(work.adj, range(len(work.adj)), -1).items():
        label[e] = h
    work.buckets = buckets = [{} for _ in work.size]
    for e, ends in enumerate(work.endpoints):
        if ends is not None:
            buckets[work.comp[ends[0]]].setdefault(label[e], []).append(e)


def _smaller_side(adj: list[dict[int, int]], skip: int, e: int, a: int, b: int):
    """The side of e that a walk exhausts first in the graph minus skip and e.

    Walks from a and from b in turn, one vertex each, and stops when one
    walk runs out: returns (its vertex set, whether it is b's side), or
    None when the walks meet, that is when e is no bridge there.
    """
    sides = ({a}, {b})
    todo = ([a], [b])
    s = 0
    while todo[s]:
        mine, theirs = sides[s], sides[1 - s]
        for f, w in adj[todo[s].pop()].items():
            if w in mine or w == skip or f == e:
                continue
            if w in theirs:
                return None
            mine.add(w)
            todo[s].append(w)
        s = 1 - s
    return sides[s], s == 1


def _label_candidate(work: _WorkGraph, v: int, adjv: dict[int, int], away: int):
    """Smallest-id edge away from v whose label is a sum of labels at v.

    Returns -1 when there is none, and None when the labels do not pay at
    v: their span has 2**rank sums, not fewer than the `away` edges of the
    component away from v.
    """
    buckets = work.buckets[work.comp[v]]
    if buckets is None:
        return None
    label = work.label
    # the labels at v XOR to 0, so the last one adds nothing to the span;
    # pivots maps a leading bit to the basis vector that has it
    pivots: dict[int, int] = {}
    for e in list(adjv)[:-1]:
        x = label[e]
        while x:
            top = x.bit_length()
            b = pivots.get(top)
            if b is None:
                if not _labels_pay(len(pivots) + 1, away):
                    return None
                pivots[top] = x
                break
            x ^= b
    sums = [0]
    for b in pivots.values():
        sums += [x ^ b for x in sums]
    best = -1
    for x in sums:
        bucket = buckets.get(x)
        if bucket is None:
            continue
        for e in bucket:
            if best >= 0 and e >= best:
                break
            if e not in adjv:
                best = e
                break
    return best


def _probe(work: _WorkGraph, v: int):
    """Smallest-id bridge of (component of v) minus v, with one side of it.

    Returns None when v's neighbourhood leaves nothing behind, the graph
    is final as it stands, or the punctured component has no bridge;
    otherwise (bridge, side, side_is_u2) where side is the vertex set of
    the smaller side of the bridge in the component minus v, and
    side_is_u2 says whether it holds the bridge's second stored endpoint.

    Every bridge of the component minus v has a label in the span of the
    block labels at v (see the module docstring), so where those pay, an
    empty candidate set is an exact null and the smallest candidate, once
    a walk from its two ends confirms it, is the smallest bridge. A label
    collision or a vertex where the labels do not pay falls back to the
    tree labels of every component of the component minus v, where every
    bridge has label 0: the first zero-label edge in id order that a walk
    confirms is the answer.
    """
    adjv = work.adj[v]
    if not adjv or work.final:
        return None
    away = work.size[work.comp[v]] - len(adjv)
    if not away:
        # every edge of the component is at v, so none is left to cut
        return None
    if work.label is None and _labels_pay(len(adjv), away):
        _build_labels(work)
    if work.label is not None:
        e = _label_candidate(work, v, adjv, away)
        if e == -1:
            return None
        if e is not None:
            a, b = work.endpoints[e]
            found = _smaller_side(work.adj, v, e, a, b)
            if found is not None:
                return e, found[0], found[1]
    # a root in every component of K - v, v's smallest neighbour first
    label = _tree_labels(work.adj, (min(adjv.values()), *adjv.values()), v)
    for e in sorted(e for e, h in label.items() if not h):
        a, b = work.endpoints[e]
        found = _smaller_side(work.adj, v, e, a, b)
        if found is not None:
            return e, found[0], found[1]
    return None


def _apply(work: _WorkGraph, v: int, probe) -> VeStep:
    """Delete the probed bridge, split v, and rejoin the sides.

    The worklist's in-place form of ve_separation_step, with its
    conventions: v keeps its id on the side of the bridge's first stored
    endpoint.
    """
    e_star, side, side_is_u2 = probe
    u1, u2 = work.endpoints[e_star]
    adj = work.adj
    del adj[u1][e_star]
    del adj[u2][e_star]
    work.endpoints[e_star] = None
    v2 = len(adj)
    adj.append({})
    adjv = adj[v]
    moving = [(e, w) for e, w in adjv.items() if (w in side) == side_is_u2]
    adj2 = adj[v2]
    for e, w in moving:
        del adjv[e]
        adj2[e] = w
        adj[w][e] = v2
        a, b = work.endpoints[e]
        work.endpoints[e] = (v2, b) if a == v else (a, v2)
    f1 = len(work.endpoints)
    f2 = f1 + 1
    if side_is_u2:
        _split_component(work, v, e_star, side, v2, f2, f1)
    else:
        _split_component(work, v, e_star, side, v, f1, f2)
    work.endpoints.append((u1, v))
    adj[u1][f1] = v
    adjv[f1] = u1
    work.endpoints.append((u2, v2))
    adj[u2][f2] = v2
    adj2[f2] = u2
    return VeStep(vertex=v, edge=e_star, u1=u1, u2=u2, v1=v, v2=v2, f1=f1, f2=f2)


def _split_component(work: _WorkGraph, v: int, e_star: int, side: set[int],
                     hub: int, f_new: int, f_old: int) -> None:
    """Give the half of a split that the probe named its own component.

    Runs once v's edges have moved and before the joining edges exist. The
    half is side plus hub, the copy of v on that side, and f_new is the
    joining edge it gets; f_old goes to the old component. With labels,
    both joining edges take e_star's label, which keeps the labels at
    every vertex summing to 0, and the half's edges leave the old
    component's buckets.
    """
    adj, comp, label = work.adj, work.comp, work.label
    c = comp[v]
    new = len(work.size)
    comp.append(c)
    comp[hub] = new
    for x in side:
        comp[x] = new
    if label is not None:
        lab = label[e_star]
        label += (lab, lab)
    # every edge at the half has both ends in it
    half = (len(adj[hub]) + sum(len(adj[x]) for x in side)) // 2
    old = None if work.buckets is None else work.buckets[c]
    buckets: Optional[dict[int, list[int]]] = None
    if old is not None:
        edges = set(adj[hub])
        for x in side:
            edges.update(adj[x])
        for e in (e_star, *edges):
            bucket = old[label[e]]
            if len(bucket) == 1:
                del old[label[e]]
            else:
                del bucket[bisect_left(bucket, e)]
        old.setdefault(lab, []).append(f_old)
        # no probe reads the buckets of a two-vertex half, where every edge
        # is at the probed vertex, nor of a half whose probes leave too few
        # edges away from the probed vertex to pass the rule; nor do the
        # halves it splits into
        if len(side) > 1 and _labels_pay(1, half - 1):
            buckets = {}
            for e in sorted(edges):
                buckets.setdefault(label[e], []).append(e)
            buckets.setdefault(lab, []).append(f_new)
    if work.buckets is not None:
        work.buckets.append(buckets)
    work.size.append(half + 1)
    work.size[c] -= half


def fused_bridge_probe(g: MultiGraph, v: int) -> Optional[int]:
    """Bridge edge id the worklist fast path would pick when popping v.

    Exists to be checked against the naive find_cut_edge_avoiding route;
    the two must agree on every connected graph, at cut vertices too. On a
    disconnected graph the probe reads only the component of v.
    """
    if not (0 <= v < g.n):
        raise InvalidVertexError(f"v={v} out of range for n={g.n}")
    probe = _probe(_WorkGraph(g), v)
    return None if probe is None else probe[0]


def test_and_decompose(g: MultiGraph, v: int) -> tuple[MultiGraph, Optional[tuple[int, int]]]:
    """Try one separation at v; return (graph, (v1, v2)) or (g, None).

    Single-step public entry: the probe's bridge, if any, goes to
    ve_separation_step, whose graph is returned.
    """
    e = fused_bridge_probe(g, v)
    if e is None:
        return g, None
    h, step = ve_separation_step(g, VESeparator(v, e))
    return h, (step.v1, step.v2)


def ve_components(g: MultiGraph, order_seed: Optional[int] = None) -> tuple[MultiGraph, DecompositionTrace]:
    """Run the separation worklist to exhaustion on a biconnected graph.

    Default order is FIFO over ascending vertex ids with both sides of each
    split re-enqueued; order_seed switches to uniformly random pops. The
    final graph and every per-step id are deterministic given the order.
    A graph that blocks() built carries the biconnected mark and is not
    tested again. When no step applies, g itself is the final graph and
    the trace's one component.
    """
    if not (g._biconnected or is_biconnected(g)):
        raise NotBiconnectedError("the separation worklist needs a biconnected input")
    work = _WorkGraph(g, connected=True)
    steps: list[VeStep] = []
    if order_seed is None:
        pool = deque(range(g.n))
        pop = pool.popleft
    else:
        rng = Rng(order_seed)
        pool = list(range(g.n))

        def pop() -> int:
            i = rng.below(len(pool))
            pool[i], pool[-1] = pool[-1], pool[i]
            return pool.pop()

    while pool:
        v = pop()
        probe = _probe(work, v)
        if probe is None:
            continue
        step = _apply(work, v, probe)
        steps.append(step)
        pool.append(step.v1)
        pool.append(step.v2)

    if not steps:
        # nothing split: the input is the final graph and its one component
        ids = tuple(range(g.m))
        return g, DecompositionTrace(g.n, g.m, (), (Block(g, tuple(range(g.n)), ids),), ids)
    # the final components are the component map's groups, in the order of
    # their smallest vertex; dropping the labels first keeps the peak
    # memory at the walk's
    work.label = work.buckets = None
    endpoints = work.endpoints
    alive = tuple(e for e, ep in enumerate(endpoints) if ep is not None)
    final = MultiGraph._checked(len(work.adj), [endpoints[e] for e in alive])
    # component id -> (its vertices, its edges in local ids, their ids)
    parts: dict[int, tuple[list[int], list[tuple[int, int]], list[int]]] = {}
    local = [0] * len(work.comp)
    for x, c in enumerate(work.comp):
        vids = parts.setdefault(c, ([], [], []))[0]
        local[x] = len(vids)
        vids.append(x)
    for e in alive:
        a, b = endpoints[e]
        _, ends, eids = parts[work.comp[a]]
        ends.append((local[a], local[b]))
        eids.append(e)
    components = tuple(Block(MultiGraph._checked(len(vids), ends), tuple(vids), tuple(eids))
                       for vids, ends, eids in parts.values())
    trace = DecompositionTrace(
        input_n=g.n,
        input_m=g.m,
        steps=tuple(steps),
        components=components,
        final_edge_ids=alive,
    )
    return final, trace


def replay_trace(trace: DecompositionTrace) -> MultiGraph:
    """Rebuild the input graph from a trace by undoing steps in reverse.

    Undoing a step merges v2 into v1. The merges go into a union-find
    forest, so an undo touches no edge but its own three, and an edge end
    is resolved through the forest when it is read. Raises GraphError when
    the trace is inconsistent; otherwise the result is id-for-id the
    original input. A trace without steps whose one component has the
    input's size and identity ids is the input, and that component's graph
    is returned as it is.
    """
    if not trace.steps and len(trace.components) == 1:
        comp = trace.components[0]
        h = comp.graph
        if ((h.n, h.m) == (trace.input_n, trace.input_m)
                and comp.vertex_ids == tuple(range(h.n)) and comp.edge_ids == tuple(range(h.m))):
            return h
    return _undo_steps(trace)


def _undo_steps(trace: DecompositionTrace) -> MultiGraph:
    """replay_trace's union-find replay, for any trace."""
    merged_into: dict[int, int] = {}

    def current(x: int) -> int:
        root = x
        while root in merged_into:
            root = merged_into[root]
        while x != root:
            merged_into[x], x = root, merged_into[x]
        return root

    endpoints = {e: (vids[a], vids[b]) for comp in trace.components for vids in (comp.vertex_ids,)
                 for e, (a, b) in zip(comp.edge_ids, comp.graph.edges())}
    for st in reversed(trace.steps):
        f1 = endpoints.pop(st.f1, None)
        f2 = endpoints.pop(st.f2, None)
        if (f1 is None or f2 is None
                or (current(f1[0]), current(f1[1])) != (st.u1, st.v1)
                or (current(f2[0]), current(f2[1])) != (st.u2, st.v2)
                or st.edge in endpoints or st.v1 == st.v2 or st.vertex != st.v1):
            raise GraphError(f"trace step {st.trace_line()!r} does not match the edges it left")
        merged_into[st.v2] = st.v1
        endpoints[st.edge] = (st.u1, st.u2)
    # input_m keys, none of them missing from 0..input_m-1, are exactly those ids
    pairs = list(map(endpoints.get, range(trace.input_m)))
    if len(endpoints) != trace.input_m or None in pairs:
        raise GraphError("replay did not recover the original edge ids")
    final = {x: current(x) for x in list(merged_into)}.get
    return MultiGraph(trace.input_n, [(final(a, a), final(b, b)) for a, b in pairs])


def _block_is_unique(h: MultiGraph) -> bool:
    """Verdict of one biconnected even block with at least one edge.

    A unique graph has treewidth at most 2, so a block that the
    series-parallel tables cannot reduce is not unique; otherwise the
    tables decide, and stop at the first part that already has two sizes.
    A two-vertex block is an even multiedge and unique.
    """
    if h.n == 2:
        return True
    numbers = series_parallel_numbers(h, stop_at_split=True)
    return numbers is not None and numbers[0] == numbers[1]


def is_cycle_number_unique_biconnected(g: MultiGraph, order_seed: Optional[int] = None) -> RecognitionVerdict:
    """Forced-size test for a biconnected even graph.

    order_seed only changes the witness on a negative answer, which is the
    first final component of the worklist that is not an Eulerian multiedge.
    """
    if not is_biconnected(g):
        raise NotBiconnectedError("this entry point needs a biconnected input")
    if any(degree(g, v) % 2 for v in range(g.n)):
        raise OddDegreeError("all degrees must be even")
    if g.m == 0:
        return RecognitionVerdict(True)
    unique = _block_is_unique(g)
    return RecognitionVerdict(unique, None if unique else g, order_seed, ((g, unique),))


def is_cycle_number_unique(g: MultiGraph, order_seed: Optional[int] = None,
                           every_block: bool = False) -> RecognitionVerdict:
    """Forced-size test for a connected even graph, block by block.

    Stops at the first failing block unless every_block is set, in which
    case block_verdicts covers every block with an edge.
    """
    if not is_eulerian(g):
        raise NotEulerianError("uniqueness is defined for connected even graphs")
    decided: list[tuple[MultiGraph, bool]] = []
    failing: Optional[MultiGraph] = None
    for block in blocks(g).blocks:
        h = block.graph
        if h.m == 0:
            continue
        unique = _block_is_unique(h)
        decided.append((h, unique))
        if not unique and failing is None:
            failing = h
            if not every_block:
                break
    return RecognitionVerdict(failing is None, failing, order_seed, tuple(decided))


def cycle_numbers_via_decomposition(g: MultiGraph, edge_limit: int = DEFAULT_EDGE_LIMIT,
                                    order_seed: Optional[int] = None) -> tuple[int, int]:
    """(min, max) decomposition sizes, block by block.

    Block values add up along cut vertices. The series-parallel tables
    answer every block of treewidth at most 2. A block of larger treewidth
    runs the separation worklist in the given order: k steps turn it into
    k + 1 components and each step costs exactly one cycle in both
    extremes, so its numbers are the component sums minus k. Each component
    goes to the tables first and, if they cannot reduce it, to the
    exhaustive engine under the edge budget.
    """
    if not is_eulerian(g):
        raise NotEulerianError("cycle numbers are defined for connected even graphs")
    c_total = 0
    nu_total = 0
    for block in blocks(g).blocks:
        h = block.graph
        if h.m == 0:
            continue
        numbers = series_parallel_numbers(h)
        if numbers is None:
            _, trace = ve_components(h, order_seed=order_seed)
            parts = [_component_numbers(comp.graph, edge_limit) for comp in trace.components]
            k = len(trace.steps)
            numbers = (sum(c for c, _ in parts) - k, sum(nu for _, nu in parts) - k)
        c_total += numbers[0]
        nu_total += numbers[1]
    return c_total, nu_total


def _component_numbers(cg: MultiGraph, edge_limit: int) -> tuple[int, int]:
    numbers = series_parallel_numbers(cg)
    if numbers is not None:
        return numbers
    if cg.m > edge_limit:
        raise ComponentTooLargeError(
            f"final component with n={cg.n} m={cg.m} exceeds the edge budget {edge_limit}"
        )
    res = oracle_cycle_numbers(cg, edge_limit=edge_limit)
    return res.c_min, res.nu_max
