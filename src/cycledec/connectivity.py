"""Bridges, cut vertices and biconnected components.

Everything here reads one iterative lowpoint DFS or the reachability walk
of the multigraph module; inputs can be large, so no recursion. On
multigraphs only the tree edge instance is skipped when scanning a vertex,
so a parallel edge back to the DFS parent counts as a back edge and the
bundle is never misreported as a bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .errors import InvalidVertexError, NotACutVertexError
from .multigraph import MultiGraph, _split_vertex, reach


def connected_components(g: MultiGraph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the components, each sorted, ordered by smallest vertex.

    One walk per component, each marking over all n vertices.
    """
    done = bytearray(g.n)
    comps = []
    for root in range(g.n):
        if done[root]:
            continue
        marks = reach(g, root)
        comp = tuple(compress(range(root, g.n), marks[root:]))
        for v in comp:
            done[v] = 1
        comps.append(comp)
    return tuple(comps)


def _lowpoint(g: MultiGraph) -> tuple[list[list[int]], list[int], set[int], int]:
    """One lowpoint DFS over every component.

    Returns (blocks, isolated, cuts, components): the edge ids of each block
    in the order the blocks close, the vertices without edges, the cut
    vertices and the number of connected components. A bridge is a block
    with exactly one edge: any other edge lies on a cycle, whose edges share
    its block, and a parallel copy makes a cycle of length 2.
    """
    n = g.n
    ends, inc = g._endpoints, g._incidence
    disc = [-1] * n
    low = [0] * n
    timer = 0
    edge_stack: list[int] = []
    raw_blocks: list[list[int]] = []
    isolated: list[int] = []
    cuts: set[int] = set()
    components = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        components += 1
        if not inc[root]:
            isolated.append(root)
            disc[root] = timer
            timer += 1
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack = [(root, -1, iter(inc[root]))]
        while stack:
            x, pe, it = stack[-1]
            moved = False
            for e in it:
                if e == pe:
                    continue
                a, b = ends[e]
                w = b if a == x else a
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    if x == root:
                        root_children += 1
                    edge_stack.append(e)
                    stack.append((w, e, iter(inc[w])))
                    moved = True
                    break
                if disc[w] < disc[x]:
                    edge_stack.append(e)
                    if disc[w] < low[x]:
                        low[x] = disc[w]
            if not moved:
                stack.pop()
                if pe >= 0:
                    p = stack[-1][0]
                    if low[x] < low[p]:
                        low[p] = low[x]
                    if low[x] >= disc[p]:
                        # edges above pe on the stack form one block
                        blk = []
                        while True:
                            be = edge_stack.pop()
                            blk.append(be)
                            if be == pe:
                                break
                        raw_blocks.append(blk)
                        if p != root:
                            cuts.add(p)
        if root_children >= 2:
            cuts.add(root)
    return raw_blocks, isolated, cuts, components


def find_cut_edge(g: MultiGraph) -> int | None:
    """Some bridge of g, or None when every component is 2-edge-connected.

    Deterministic: the smallest bridge edge id is returned.
    """
    raw_blocks, _, _, _ = _lowpoint(g)
    return min((blk[0] for blk in raw_blocks if len(blk) == 1), default=None)


def cut_vertices(g: MultiGraph) -> frozenset[int]:
    _, _, cuts, _ = _lowpoint(g)
    return frozenset(cuts)


def is_biconnected(g: MultiGraph) -> bool:
    """Connected with no cut vertex. Single vertices and single edges count."""
    _, _, cuts, components = _lowpoint(g)
    return components == 1 and not cuts


def is_two_edge_connected(g: MultiGraph) -> bool:
    """Connected with no bridge."""
    raw_blocks, _, _, components = _lowpoint(g)
    return components == 1 and all(len(blk) > 1 for blk in raw_blocks)


@dataclass(frozen=True)
class Block:
    """A biconnected component, with maps from its local ids back to the parent."""

    graph: MultiGraph
    vertex_ids: tuple[int, ...]
    edge_ids: tuple[int, ...]


@dataclass(frozen=True)
class BlockForest:
    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]
    block_cut_incidence: dict[int, tuple[int, ...]]


def blocks(g: MultiGraph) -> BlockForest:
    """Biconnected components of g; their edge sets partition E(g).

    Isolated vertices become single-vertex blocks so that every vertex
    appears in at least one block. Every block graph carries the
    biconnected mark (see MultiGraph).
    """
    raw_blocks, isolated, cuts, _ = _lowpoint(g)
    ends = g._endpoints
    out: list[Block] = []
    for blk in raw_blocks:
        blk.sort()
        pairs = [ends[e] for e in blk]
        verts = sorted({v for pair in pairs for v in pair})
        local = {v: i for i, v in enumerate(verts)}
        graph = MultiGraph._checked(len(verts), [(local[u], local[v]) for u, v in pairs])
        graph._biconnected = True
        out.append(Block(graph, tuple(verts), tuple(blk)))
    for v in isolated:
        graph = MultiGraph._checked(1, ())
        graph._biconnected = True
        out.append(Block(graph, (v,), ()))
    out.sort(key=lambda b: b.vertex_ids[0])
    incidence: dict[int, list[int]] = {c: [] for c in cuts}
    for bi, b in enumerate(out):
        for v in b.vertex_ids:
            if v in cuts:
                incidence[v].append(bi)
    return BlockForest(tuple(out), frozenset(cuts), {c: tuple(bs) for c, bs in incidence.items()})


def split_at_cut_vertex(g: MultiGraph, v: int) -> tuple[MultiGraph, int, int]:
    """Split g at a cut vertex v into two attached halves sharing no edge.

    Returns (graph, v1, v2) where v is duplicated: v1 keeps the id v and takes
    the edges into the component of g - v holding the smallest-id neighbour of
    v; v2 is the new vertex n and takes the rest. The result is g1 union g2
    as one graph; edge ids are unchanged.
    """
    if not (0 <= v < g.n):
        raise InvalidVertexError(f"vertex {v} out of range")
    nbrs = sorted({g.other(e, v) for e in g.incident(v)})
    if not nbrs:
        raise NotACutVertexError(f"vertex {v} is isolated")
    # v1 keeps the component of g - v that holds the smallest neighbour
    keep = reach(g, nbrs[0], skip_vertex=v)
    if all(keep[w] for w in nbrs):
        raise NotACutVertexError(f"vertex {v} is not a cut vertex of its component")
    return MultiGraph._checked(g.n + 1, _split_vertex(g, v, keep)), v, g.n
