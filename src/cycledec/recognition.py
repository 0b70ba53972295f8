"""Recognition of graphs whose cycle-decomposition size is forced.

A connected even graph has exactly one possible decomposition size iff every
final component of the vertex-edge separation worklist, run per biconnected
block, is an Eulerian multiedge. The worklist repeatedly picks a vertex v,
finds a bridge e of the graph minus v, and undoes one vertex-edge
identification there; both halves stay even and biconnected, so the process
needs no global restarts and finishes in at most n - 2 steps per block.

The mutable working graph keeps every vertex id ever created and never
reuses edge ids, which makes traces exactly replayable.

The yes/no verdict and the numbers take a shorter route that builds no
trace: the series-parallel tables of oracle.series_parallel_numbers answer
every block of treewidth at most 2, and a block of larger treewidth is not
unique. Witnesses come from the worklist, built when first asked for; the
numbers of a block of larger treewidth come from its worklist components.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Optional

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
from .operators import VeStep
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
    `final` is set when every edge of the input has a parallel copy: the
    edge of a vertex-edge separator is a bridge of the graph minus a
    vertex, and a parallel copy survives that deletion, so no probe can
    hit and the graph stays as it is.
    """

    __slots__ = ("adj", "endpoints", "final")

    def __init__(self, g: MultiGraph) -> None:
        self.adj: list[dict[int, int]] = [{} for _ in range(g.n)]
        self.endpoints: list[Optional[tuple[int, int]]] = []
        for e in range(g.m):
            u, v = g.endpoints(e)
            self.adj[u][e] = v
            self.adj[v][e] = u
            self.endpoints.append((u, v))
        pairs = Counter((u, v) if u < v else (v, u) for u, v in self.endpoints)
        self.final = 1 not in pairs.values()


def _component_bridges(adj: list[dict[int, int]], skip: int, root: int):
    """Bridges of the component of root in the graph minus vertex skip.

    Iterative lowpoint scan. Returns (bridges, disc, tout) where each bridge
    is (edge id, parent endpoint, child endpoint) and disc/tout give the DFS
    interval of every visited vertex, so `disc[c] <= disc[w] < tout[c]`
    tests membership in the subtree hanging off a bridge's child side.
    """
    disc: dict[int, int] = {root: 0}
    tout: dict[int, int] = {}
    low = {root: 0}
    clock = 1
    bridges: list[tuple[int, int, int]] = []
    # frame: (vertex, edge taken to enter, iterator over adj items)
    stack = [(root, -1, iter(adj[root].items()))]
    while stack:
        x, pe, it = stack[-1]
        advanced = False
        for e, w in it:
            if e == pe or w == skip:
                continue
            dw = disc.get(w)
            if dw is None:
                disc[w] = low[w] = clock
                clock += 1
                stack.append((w, e, iter(adj[w].items())))
                advanced = True
                break
            if dw < low[x]:
                low[x] = dw
        if advanced:
            continue
        stack.pop()
        tout[x] = clock
        clock += 1
        if stack:
            p = stack[-1][0]
            if low[x] > disc[p]:
                bridges.append((pe, p, x))
            if low[x] < low[p]:
                low[p] = low[x]
    return bridges, disc, tout


def _probe(work: _WorkGraph, v: int):
    """Smallest-id bridge of (component of v) minus v, with DFS intervals.

    Returns None when v's neighbourhood leaves nothing behind, the graph
    is final as it stands, or the punctured component has no bridge. The
    DFS root is v's smallest neighbour; the bridge set does not depend on
    that choice.
    """
    adjv = work.adj[v]
    if not adjv or work.final:
        return None
    root = min(adjv.values())
    if root == v:
        raise GraphError("loop edge in working graph")
    bridges, disc, tout = _component_bridges(work.adj, v, root)
    if not bridges:
        return None
    return min(bridges), disc, tout


def _apply(work: _WorkGraph, v: int, probe) -> VeStep:
    """Delete the probed bridge, split v, and rejoin the sides.

    Matches ve_separation_step's conventions: v keeps its id on the side of
    the bridge's first stored endpoint.
    """
    (e_star, _p, c_star), disc, tout = probe
    u1, u2 = work.endpoints[e_star]
    lo, hi = disc[c_star], tout[c_star]
    sub_is_u2 = u2 == c_star
    adj = work.adj
    del adj[u1][e_star]
    del adj[u2][e_star]
    work.endpoints[e_star] = None
    v2 = len(adj)
    adj.append({})
    adjv = adj[v]
    moving = [
        (e, w)
        for e, w in adjv.items()
        if ((dw := disc.get(w)) is not None and lo <= dw < hi) == sub_is_u2
    ]
    adj2 = adj[v2]
    for e, w in moving:
        del adjv[e]
        adj2[e] = w
        adj[w][e] = v2
        a, b = work.endpoints[e]
        work.endpoints[e] = (v2, b) if a == v else (a, v2)
    f1 = len(work.endpoints)
    work.endpoints.append((u1, v))
    adj[u1][f1] = v
    adjv[f1] = u1
    f2 = f1 + 1
    work.endpoints.append((u2, v2))
    adj[u2][f2] = v2
    adj2[f2] = u2
    return VeStep(vertex=v, edge=e_star, u1=u1, u2=u2, v1=v, v2=v2, f1=f1, f2=f2)


def fused_bridge_probe(g: MultiGraph, v: int) -> Optional[int]:
    """Bridge edge id the worklist fast path would pick when popping v.

    Exists to be checked against the naive find_cut_edge_avoiding route;
    the two must agree on every graph.
    """
    if not (0 <= v < g.n):
        raise InvalidVertexError(f"v={v} out of range for n={g.n}")
    probe = _probe(_WorkGraph(g), v)
    return None if probe is None else probe[0][0]


def test_and_decompose(g: MultiGraph, v: int) -> tuple[MultiGraph, Optional[tuple[int, int]]]:
    """Try one separation at v; return (graph, (v1, v2)) or (g, None).

    Single-step public entry: the result graph equals ve_separation_step at
    the separator the probe found, with dense ids.
    """
    if not (0 <= v < g.n):
        raise InvalidVertexError(f"v={v} out of range for n={g.n}")
    work = _WorkGraph(g)
    probe = _probe(work, v)
    if probe is None:
        return g, None
    step = _apply(work, v, probe)
    edges = [ep for ep in work.endpoints if ep is not None]
    return MultiGraph(g.n + 1, edges), (step.v1, step.v2)


def ve_components(g: MultiGraph, order_seed: Optional[int] = None) -> tuple[MultiGraph, DecompositionTrace]:
    """Run the separation worklist to exhaustion on a biconnected graph.

    Default order is FIFO over ascending vertex ids with both sides of each
    split re-enqueued; order_seed switches to uniformly random pops. The
    final graph and every per-step id are deterministic given the order.
    """
    if not is_biconnected(g):
        raise NotBiconnectedError("the separation worklist needs a biconnected input")
    work = _WorkGraph(g)
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

    endpoints = work.endpoints
    alive = tuple(e for e, ep in enumerate(endpoints) if ep is not None)
    final = MultiGraph(len(work.adj), [endpoints[e] for e in alive])

    seen = bytearray(len(work.adj))
    components: list[Block] = []
    for r in range(len(work.adj)):
        if seen[r]:
            continue
        seen[r] = 1
        comp = [r]
        cursor = 0
        while cursor < len(comp):
            x = comp[cursor]
            cursor += 1
            for w in work.adj[x].values():
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
        comp.sort()
        local = {w: i for i, w in enumerate(comp)}
        eids = sorted({e for w in comp for e in work.adj[w]})
        cgraph = MultiGraph(
            len(comp),
            [(local[endpoints[e][0]], local[endpoints[e][1]]) for e in eids],
        )
        components.append(Block(cgraph, tuple(comp), tuple(eids)))

    trace = DecompositionTrace(
        input_n=g.n,
        input_m=g.m,
        steps=tuple(steps),
        components=tuple(components),
        final_edge_ids=alive,
    )
    return final, trace


def replay_trace(trace: DecompositionTrace) -> MultiGraph:
    """Rebuild the input graph from a trace by undoing steps in reverse.

    Raises GraphError when the trace is inconsistent; otherwise the result
    is id-for-id the original input.
    """
    endpoints: dict[int, tuple[int, int]] = {}
    for comp in trace.components:
        for le in range(comp.graph.m):
            a, b = comp.graph.endpoints(le)
            endpoints[comp.edge_ids[le]] = (comp.vertex_ids[a], comp.vertex_ids[b])
    for st in reversed(trace.steps):
        if st.f1 not in endpoints or st.f2 not in endpoints:
            raise GraphError(f"trace step {st.trace_line()!r} misses its joining edges")
        del endpoints[st.f1]
        del endpoints[st.f2]
        for e, (a, b) in endpoints.items():
            if a == st.v2 or b == st.v2:
                endpoints[e] = (st.v1 if a == st.v2 else a, st.v1 if b == st.v2 else b)
        endpoints[st.edge] = (st.u1, st.u2)
    if sorted(endpoints) != list(range(trace.input_m)):
        raise GraphError("replay did not recover the original edge ids")
    return MultiGraph(trace.input_n, [endpoints[e] for e in range(trace.input_m)])


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
