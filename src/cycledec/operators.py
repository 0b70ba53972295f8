"""Binary identification operators and their inverse separation steps.

Three ways to combine two graphs:

* vertex identification: glue at one vertex,
* edge identification: delete one edge on each side, then join the four
  endpoints crosswise with two fresh edges,
* vertex-edge identification: delete one edge on each side, glue the two
  far endpoints, and join the two anchor endpoints with one fresh edge.

Id conventions are fixed so results are reproducible: the left operand keeps
its vertex and edge ids, the right operand's surviving ids follow in order,
and freshly created edges take the last ids. Every application returns the
new graph plus a record carrying the full relabelling maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .errors import (
    InvalidParamError,
    InvalidVertexError,
    NotAnEndpointError,
    NotASeparatorError,
    NotATwoCutError,
    NotBiconnectedError,
    SharedEndpointError,
)
from .connectivity import find_cut_edge, is_biconnected
from .multigraph import MultiGraph, induced_subgraph, reach


@dataclass(frozen=True)
class OperatorApplication:
    """Result bookkeeping for one operator application.

    Maps send operand ids to result ids; None marks a deleted edge.
    kind is "V", "E" or "X" for vertex, edge and vertex-edge identification.
    """

    kind: str
    anchors1: tuple[int, ...]
    anchors2: tuple[int, ...]
    vertex_map1: tuple[Optional[int], ...]
    vertex_map2: tuple[Optional[int], ...]
    edge_map1: tuple[Optional[int], ...]
    edge_map2: tuple[Optional[int], ...]
    new_edges: tuple[int, ...]
    merged_vertex: Optional[int]

    def trace_line(self) -> str:
        a1 = " ".join(str(x) for x in self.anchors1)
        a2 = " ".join(str(x) for x in self.anchors2)
        if self.kind == "V":
            return f"V {a1} {a2}"
        if self.kind == "E":
            f1, f2 = self.new_edges
            return f"E {a1} {a2} -> {f1} {f2}"
        return f"X {a1} {a2} -> {self.merged_vertex} {self.new_edges[0]}"


def check_vertex(n: int, v: int, label: str) -> None:
    """Raise InvalidVertexError unless v is a vertex id of a graph on n vertices."""
    if not (0 <= v < n):
        raise InvalidVertexError(f"{label}={v} out of range for n={n}")


def check_edge(m: int, e: int, label: str) -> None:
    """Raise InvalidParamError unless e is an edge id of a graph with m edges."""
    if not (0 <= e < m):
        raise InvalidParamError(f"{label}={e} out of range for m={m}")


def _glued(n1: int, n2: int, w: int, into: int) -> tuple[int, ...]:
    """Vertex map of a right operand on n2 vertices whose vertex w merges
    into left vertex into; the others follow the left's n1 ids in order."""
    return (*range(n1, n1 + w), into, *range(n1 + w, n1 + n2 - 1))


def check_join(g1: list, u1: int, g2: list, u2: int) -> None:
    """The anchor checks of vertex identification, on [n, edge list] pairs."""
    check_vertex(g1[0], u1, "u1")
    check_vertex(g2[0], u2, "u2")


def check_splice(g1: list, e1: int, u1: int, g2: list, e2: int, u2: int) -> None:
    """The anchor checks of edge and vertex-edge identification, on
    [n, edge list] pairs: both edges exist and each anchor is an endpoint."""
    check_edge(len(g1[1]), e1, "e1")
    check_edge(len(g2[1]), e2, "e2")
    if u1 not in g1[1][e1]:
        raise NotAnEndpointError(f"u1={u1} is not an endpoint of edge {e1}")
    if u2 not in g2[1][e2]:
        raise NotAnEndpointError(f"u2={u2} is not an endpoint of edge {e2}")


def join_vertex(g1: list, u1: int, g2: list, u2: int) -> tuple[int, ...]:
    """Vertex identification in place on [n, edge list] pairs.

    Appends g2's edges to g1 with u2 merged into u1 and returns g2's vertex
    map. No checks: the public operators and replay_script run check_join
    first, and the generators draw valid anchors.
    """
    n1, edges1 = g1
    vmap2 = _glued(n1, g2[0], u2, u1)
    edges1 += [(vmap2[a], vmap2[b]) for a, b in g2[1]]
    g1[0] = n1 + g2[0] - 1
    return vmap2


def splice(g1: list, e1: int, u1: int, g2: list, e2: int, u2: int, merge: bool) -> tuple[int, ...]:
    """Edge identification, or vertex-edge identification when merge is set,
    in place on [n, edge list] pairs.

    Deletes e1 and e2 and appends g2's other edges to g1, then the edge
    u1-u2 and, without merge, the edge between the far endpoints v1-v2;
    with merge, v2 is glued onto v1 instead. Returns g2's vertex map. No
    checks, as for join_vertex: check_splice goes first.
    """
    n1, edges1 = g1
    n2, edges2 = g2
    a1, b1 = edges1[e1]
    v1 = b1 if u1 == a1 else a1
    a2, b2 = edges2[e2]
    v2 = b2 if u2 == a2 else a2
    vmap2 = _glued(n1, n2, v2, v1) if merge else tuple(range(n1, n1 + n2))
    moved = [(vmap2[x], vmap2[y]) for x, y in edges2]
    del edges1[e1], moved[e2]
    edges1 += moved
    edges1.append((u1, vmap2[u2]))
    if not merge:
        edges1.append((v1, vmap2[v2]))
    g1[0] = n1 + n2 - 1 if merge else n1 + n2
    return vmap2


def _without(start: int, m: int, e: int) -> tuple[Optional[int], ...]:
    """Edge map of an operand with m edges whose edge e is deleted and whose
    other edges move, in order, to ids from start on."""
    return (*range(start, start + e), None, *range(start + e, start + m - 1))


def vertex_identification(g1: MultiGraph, u1: int, g2: MultiGraph, u2: int) -> tuple[MultiGraph, OperatorApplication]:
    """Glue g1 and g2 at u1 = u2. The merged vertex keeps the id u1."""
    raw, raw2 = [g1.n, list(g1.edges())], [g2.n, list(g2.edges())]
    check_join(raw, u1, raw2, u2)
    vmap2 = join_vertex(raw, u1, raw2, u2)
    rec = OperatorApplication(
        kind="V",
        anchors1=(u1,),
        anchors2=(u2,),
        vertex_map1=tuple(range(g1.n)),
        vertex_map2=vmap2,
        edge_map1=tuple(range(g1.m)),
        edge_map2=tuple(range(g1.m, g1.m + g2.m)),
        new_edges=(),
        merged_vertex=u1,
    )
    return MultiGraph(raw[0], raw[1]), rec


def _splice_application(kind: str, g1: MultiGraph, e1: int, u1: int,
                        g2: MultiGraph, e2: int, u2: int) -> tuple[MultiGraph, OperatorApplication]:
    raw, raw2 = [g1.n, list(g1.edges())], [g2.n, list(g2.edges())]
    check_splice(raw, e1, u1, raw2, e2, u2)
    merge = kind == "X"
    vmap2 = splice(raw, e1, u1, raw2, e2, u2, merge)
    m1, m = g1.m, len(raw[1])
    rec = OperatorApplication(
        kind=kind,
        anchors1=(e1, u1),
        anchors2=(e2, u2),
        vertex_map1=tuple(range(g1.n)),
        vertex_map2=vmap2,
        edge_map1=_without(0, m1, e1),
        edge_map2=_without(m1 - 1, g2.m, e2),
        new_edges=(m - 1,) if merge else (m - 2, m - 1),
        merged_vertex=g1.other(e1, u1) if merge else None,
    )
    return MultiGraph(raw[0], raw[1]), rec


def edge_identification(g1: MultiGraph, e1: int, u1: int, g2: MultiGraph, e2: int, u2: int) -> tuple[MultiGraph, OperatorApplication]:
    """Delete e1 and e2, then join the sides with edges u1-u2 and v1-v2.

    v1 and v2 are the far endpoints of e1 and e2. No vertices merge; the new
    edges take the last two ids, anchor pair first.
    """
    return _splice_application("E", g1, e1, u1, g2, e2, u2)


def vertex_edge_identification(g1: MultiGraph, e1: int, u1: int, g2: MultiGraph, e2: int, u2: int) -> tuple[MultiGraph, OperatorApplication]:
    """Delete e1 and e2, glue their far endpoints, and add one edge u1-u2.

    The merged vertex keeps the id of e1's far endpoint; the new edge takes
    the last id.
    """
    return _splice_application("X", g1, e1, u1, g2, e2, u2)


@dataclass(frozen=True)
class VESeparator:
    """A vertex v and an edge e not at v whose joint removal disconnects."""

    vertex: int
    edge: int


def find_cut_edge_avoiding(g: MultiGraph, v: int) -> Optional[int]:
    """Smallest bridge edge id of g - v, or None. Ids refer to g.

    Deliberately naive: materializes the punctured graph and reuses the
    plain bridge scan. The recognition module carries a fused fast path
    that must agree with this on every input.
    """
    check_vertex(g.n, v, "v")
    if g.n == 1:
        return None
    sub, _, edge_ids = induced_subgraph(g, (w for w in range(g.n) if w != v))
    b = find_cut_edge(sub)
    return None if b is None else edge_ids[b]


def find_ve_separator(g: MultiGraph) -> Optional[VESeparator]:
    """First vertex-edge separator of a biconnected graph, scanning vertices
    in ascending id order, or None when the graph is irreducible."""
    if not is_biconnected(g):
        raise NotBiconnectedError("vertex-edge separators are defined on biconnected graphs")
    for v in range(g.n):
        e = find_cut_edge_avoiding(g, v)
        if e is not None:
            return VESeparator(v, e)
    return None


@dataclass(frozen=True)
class VeStep:
    """One vertex-edge separation: delete edge, split vertex, add two edges.

    ve_separation_step returns it, and the recognition worklist records one
    per step in its working-space ids. The split vertex keeps its id as v1 on u1's side; v2 is the new vertex
    on u2's side. u1, u2 are the deleted edge's stored endpoints in order,
    f1 = (u1, v1) and f2 = (u2, v2) the created edges.
    """

    vertex: int
    edge: int
    u1: int
    u2: int
    v1: int
    v2: int
    f1: int
    f2: int

    def trace_line(self) -> str:
        return f"VE {self.vertex} {self.edge} -> {self.v1} {self.v2} {self.u1} {self.u2} {self.f1} {self.f2}"


def ve_separation_step(g: MultiGraph, sep: VESeparator) -> tuple[MultiGraph, VeStep]:
    """Undo one vertex-edge identification at separator sep.

    Returns the disjoint union of the two parts as one graph, with the
    separated vertex duplicated and each anchor endpoint of the deleted edge
    joined to the copy on its own side.
    """
    v, e = sep.vertex, sep.edge
    check_vertex(g.n, v, "v")
    check_edge(g.m, e, "e")
    u1, u2 = g.endpoints(e)
    if v in (u1, u2):
        raise NotASeparatorError(f"edge {e} is incident to vertex {v}")
    side = reach(g, u1, skip_vertex=v, skip_edges=(e,))
    if side[u2]:
        raise NotASeparatorError(f"edge {e} is not a bridge of the graph minus vertex {v}")
    v2 = g.n
    edges = []
    for f in range(g.m):
        if f == e:
            continue
        a, b = g.endpoints(f)
        if a == v and not side[b]:
            a = v2
        elif b == v and not side[a]:
            b = v2
        edges.append((a, b))
    f1 = len(edges)
    edges.append((u1, v))
    edges.append((u2, v2))
    rec = VeStep(vertex=v, edge=e, u1=u1, u2=u2, v1=v, v2=v2, f1=f1, f2=f1 + 1)
    return MultiGraph(g.n + 1, edges), rec


@dataclass(frozen=True)
class EdgeSeparationRecord:
    """One edge separation: delete a 2-cut, rejoin endpoints per side.

    pair1 = (a1, c1) is the new edge f1 inside the side listed in `side`
    (where a1 comes from e1 and c1 from e2); pair2 = (b1, c2) is f2 in the
    other side.
    """

    e1: int
    e2: int
    f1: int
    f2: int
    pair1: tuple[int, int]
    pair2: tuple[int, int]
    side: tuple[int, ...]

    def trace_line(self) -> str:
        return f"E2 {self.e1} {self.e2} -> {self.f1} {self.f2}"


def edge_separation_step(g: MultiGraph, cut: tuple[int, int]) -> tuple[MultiGraph, EdgeSeparationRecord]:
    """Undo one edge identification at a 2-cut with four distinct endpoints.

    Each component keeps one endpoint of each cut edge; those two endpoints
    get joined. Vertex ids are unchanged, the two new edges take the last
    two ids.
    """
    e1, e2 = cut
    check_edge(g.m, e1, "e1")
    check_edge(g.m, e2, "e2")
    if e1 == e2:
        raise NotATwoCutError("the two cut edges must be distinct")
    a1, b1 = g.endpoints(e1)
    a2, b2 = g.endpoints(e2)
    if a2 in (a1, b1) or b2 in (a1, b1):
        raise SharedEndpointError("cut edges share an endpoint")
    side = reach(g, a1, skip_edges=(e1, e2))
    if side[b1]:
        raise NotATwoCutError("removing the pair does not disconnect the graph")
    if side[a2] == side[b2]:
        raise NotATwoCutError("second edge does not cross the cut")
    c1, c2 = (a2, b2) if side[a2] else (b2, a2)
    edges = [g.endpoints(f) for f in range(g.m) if f not in (e1, e2)]
    f1 = len(edges)
    edges.append((a1, c1))
    f2 = f1 + 1
    edges.append((b1, c2))
    rec = EdgeSeparationRecord(
        e1=e1, e2=e2, f1=f1, f2=f2,
        pair1=(a1, c1), pair2=(b1, c2),
        side=tuple(compress(range(g.n), side)),
    )
    return MultiGraph(g.n, edges), rec
