"""Core multigraph type and its file format.

Vertices are the dense integers 0..n-1 and edges the dense integers 0..m-1.
Parallel edges are distinct edge ids with equal endpoint pairs; loops are
rejected. Graphs are immutable once built: every operation that changes a
graph returns a new one, together with relabelling maps where ids move.

The text format is line oriented: a header ``p <n> <m>`` followed by exactly
m lines ``e <u> <v>``. Lines starting with ``#`` and blank lines are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Optional

from .errors import (
    DegreeNotTwoError,
    GraphError,
    GraphSyntaxError,
    InvalidVertexError,
    LoopEdgeError,
    NeighboursNotDistinctError,
    TooLargeError,
    VertexOutOfRangeError,
)

# largest vertex count parse_graph accepts; the header is checked before
# anything of that size is allocated
MAX_VERTICES = 10**7


class MultiGraph:
    """Undirected loop-free multigraph with dense integer ids.

    `_biconnected` is set by code that built the graph as a biconnected
    component, so that entry points needing a biconnected input can skip
    testing it again. It is not part of the graph's value: equality and
    hashing ignore it.
    """

    __slots__ = ("_n", "_endpoints", "_incidence", "_biconnected")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise GraphError("vertex set must be non-empty")
        endpoints = []
        incidence = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(f"edge {eid}: endpoint out of range for n={n}")
            if u == v:
                raise LoopEdgeError(f"edge {eid}: loop at vertex {u}")
            endpoints.append((u, v))
            incidence[u].append(eid)
            incidence[v].append(eid)
        self._n = n
        self._endpoints = tuple(endpoints)
        self._incidence = tuple(tuple(es) for es in incidence)
        self._biconnected = False

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._endpoints)

    def endpoints(self, e: int) -> tuple[int, int]:
        return self._endpoints[e]

    def edges(self) -> Iterator[tuple[int, int]]:
        return iter(self._endpoints)

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge ids incident to v, in ascending id order."""
        if not (0 <= v < self._n):
            raise InvalidVertexError(f"vertex {v} out of range for n={self._n}")
        return self._incidence[v]

    def other(self, e: int, v: int) -> int:
        """The endpoint of e that is not v."""
        u, w = self._endpoints[e]
        if v == u:
            return w
        if v == w:
            return u
        raise InvalidVertexError(f"vertex {v} is not an endpoint of edge {e}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self._n == other._n and self._endpoints == other._endpoints

    def __hash__(self) -> int:
        return hash((self._n, self._endpoints))

    def __repr__(self) -> str:
        return f"MultiGraph(n={self._n}, m={self.m})"


def degree(g: MultiGraph, v: int) -> int:
    """Number of edge ends at v; a parallel bundle counts once per edge."""
    return len(g.incident(v))


def neighbours(g: MultiGraph, v: int) -> frozenset[int]:
    """Distinct opposite endpoints of the edges at v."""
    return frozenset(g.other(e, v) for e in g.incident(v))


def reach(g: MultiGraph, start: int, skip_vertex: int = -1, skip_edges: Collection[int] = ()) -> bytearray:
    """Marks of the vertices reachable from start in g minus skip_vertex and
    minus the edges in skip_edges: entry w is 1 iff w is reached.

    The skipped vertex is never entered, so its mark is 0 unless it is start.
    """
    ends, inc = g._endpoints, g._incidence
    seen = bytearray(g.n)
    if skip_vertex >= 0:
        seen[skip_vertex] = 1
    seen[start] = 1
    stack = [start]
    while stack:
        x = stack.pop()
        for e in inc[x]:
            if e in skip_edges:
                continue
            a, b = ends[e]
            w = b if a == x else a
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    if skip_vertex >= 0 and skip_vertex != start:
        seen[skip_vertex] = 0
    return seen


def is_eulerian(g: MultiGraph) -> bool:
    """Connected with every degree even. The one-vertex graph qualifies."""
    if any(degree(g, v) % 2 for v in range(g.n)):
        return False
    return all(reach(g, 0))


def is_eulerian_multiedge(g: MultiGraph) -> bool:
    """Two vertices joined by an even, positive number of parallel edges."""
    return g.n == 2 and g.m >= 2 and g.m % 2 == 0


def resolve(g: MultiGraph, u: int) -> tuple[MultiGraph, tuple[Optional[int], ...], tuple[Optional[int], ...]]:
    """Suppress a degree-2 vertex u, joining its two distinct neighbours.

    Returns (graph, vertex_map, edge_map). Maps send old ids to new ids,
    with None for removed ids; the replacement edge takes the last new id.
    """
    inc = g.incident(u)
    if len(inc) != 2:
        raise DegreeNotTwoError(f"vertex {u} has degree {len(inc)}, need 2")
    e1, e2 = inc
    a, b = g.other(e1, u), g.other(e2, u)
    if a == b:
        raise NeighboursNotDistinctError(f"both edges at vertex {u} lead to {a}")
    vertex_map: list[Optional[int]] = [None] * g.n
    for w in range(g.n):
        if w != u:
            vertex_map[w] = w if w < u else w - 1
    edge_map: list[Optional[int]] = [None] * g.m
    edges = []
    for e in range(g.m):
        if e in (e1, e2):
            continue
        x, y = g.endpoints(e)
        edge_map[e] = len(edges)
        edges.append((vertex_map[x], vertex_map[y]))
    edges.append((vertex_map[a], vertex_map[b]))
    return MultiGraph(g.n - 1, edges), tuple(vertex_map), tuple(edge_map)


def induced_subgraph(g: MultiGraph, vertices: Iterable[int]) -> tuple[MultiGraph, tuple[int, ...], tuple[int, ...]]:
    """Subgraph on a vertex set, keeping edges with both endpoints inside.

    Returns (graph, vertex_ids, edge_ids) where the tuples map the new dense
    ids back to ids of g, in ascending order of the original ids.
    """
    verts = sorted(set(vertices))
    if not verts:
        raise GraphError("induced subgraph needs at least one vertex")
    local = {v: i for i, v in enumerate(verts)}
    edges = []
    edge_ids = []
    for e in range(g.m):
        u, v = g.endpoints(e)
        if u in local and v in local:
            edge_ids.append(e)
            edges.append((local[u], local[v]))
    return MultiGraph(len(verts), edges), tuple(verts), tuple(edge_ids)


def endpoint_multiset(g: MultiGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Canonical (n, sorted endpoint pairs) form for equality up to edge order."""
    return g.n, tuple(sorted((u, v) if u <= v else (v, u) for u, v in g.edges()))


@dataclass(frozen=True)
class Cycle:
    """A simple cycle as (vertex, edge) steps in cyclic order.

    Edge steps[i][1] joins steps[i][0] to steps[(i+1) % k][0]. Length 2 is
    allowed and means a pair of parallel edges.
    """

    steps: tuple[tuple[int, int], ...]

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.steps)

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class CycleDecomposition:
    cycles: tuple[Cycle, ...]

    def __len__(self) -> int:
        return len(self.cycles)


def validate_cycle_decomposition(g: MultiGraph, dec: CycleDecomposition) -> None:
    """Raise GraphError unless dec partitions E(g) into edge-disjoint simple cycles."""
    seen_edges: set[int] = set()
    for ci, cyc in enumerate(dec.cycles):
        k = len(cyc.steps)
        if k < 2:
            raise GraphError(f"cycle {ci}: length {k} below 2")
        verts = [v for v, _ in cyc.steps]
        if len(set(verts)) != k:
            raise GraphError(f"cycle {ci}: repeated vertex")
        for i, (v, e) in enumerate(cyc.steps):
            if e in seen_edges:
                raise GraphError(f"cycle {ci}: edge {e} used twice")
            seen_edges.add(e)
            w = verts[(i + 1) % k]
            if {v, w} != set(g.endpoints(e)):
                raise GraphError(f"cycle {ci}: edge {e} does not join {v} and {w}")
    if len(seen_edges) != g.m:
        raise GraphError(f"decomposition covers {len(seen_edges)} of {g.m} edges")


def parse_graph(text: str) -> MultiGraph:
    """Parse the ``p``/``e`` line format. Raises GraphSyntaxError with a line number."""
    n = m = None
    edges: list[tuple[int, int]] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not header_seen:
            if parts[0] != "p" or len(parts) != 3:
                raise GraphSyntaxError(f"expected 'p <n> <m>', got {line!r}", lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphSyntaxError(f"non-integer header field in {line!r}", lineno) from None
            if n < 1 or m < 0:
                raise GraphSyntaxError(f"need n >= 1 and m >= 0, got n={n} m={m}", lineno)
            if n > MAX_VERTICES:
                raise TooLargeError(f"line {lineno}: n={n} exceeds the vertex budget {MAX_VERTICES}")
            header_seen = True
            continue
        if parts[0] != "e" or len(parts) != 3:
            raise GraphSyntaxError(f"expected 'e <u> <v>', got {line!r}", lineno)
        if len(edges) >= m:
            raise GraphSyntaxError(f"more than {m} edge lines", lineno)
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphSyntaxError(f"non-integer endpoint in {line!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"endpoint out of range in {line!r}", lineno)
        if u == v:
            raise LoopEdgeError(f"loop at vertex {u}", lineno)
        edges.append((u, v))
    if not header_seen:
        raise GraphSyntaxError("missing 'p <n> <m>' header", 1)
    if len(edges) != m:
        raise GraphSyntaxError(f"expected {m} edge lines, got {len(edges)}", 1)
    return MultiGraph(n, edges)


def write_graph(g: MultiGraph) -> str:
    """Serialize to the ``p``/``e`` format with LF endings; inverse of parse_graph."""
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
