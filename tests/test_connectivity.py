import pytest
from hypothesis import given

import cycledec as cd
from conftest import built_graphs, eulerian_graphs, multigraphs
from helpers import canon, mk_bowtie, mk_k5, naive_bridges, naive_components, naive_cut_vertices


class TestComponents:
    def test_single_vertex(self):
        assert cd.connected_components(cd.MultiGraph(1, [])) == ((0,),)

    def test_two_components(self):
        g = cd.MultiGraph(5, [(0, 1), (3, 4), (4, 2)])
        assert cd.connected_components(g) == ((0, 1), (2, 3, 4))


class TestBridgesAndCuts:
    def test_bridge_basic(self):
        g = cd.MultiGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        assert cd.find_cut_edge(g) == 3
        assert cd.cut_vertices(g) == frozenset({2})

    def test_parallel_pair_is_no_bridge(self):
        g = cd.MultiGraph(2, [(0, 1), (0, 1)])
        assert cd.find_cut_edge(g) is None

    def test_single_edge_is_bridge(self):
        assert cd.find_cut_edge(cd.MultiGraph(2, [(0, 1)])) == 0

    def test_smallest_bridge_returned(self):
        # path 0-1-2: both edges are bridges, the smaller id wins
        g = cd.MultiGraph(3, [(1, 2), (0, 1)])
        assert cd.find_cut_edge(g) == 0

    @given(multigraphs(max_n=7, max_m=12))
    def test_bridges_match_naive(self, g):
        ref = naive_bridges(g)
        got = cd.find_cut_edge(g)
        assert got == (min(ref) if ref else None)

    @given(multigraphs(max_n=7, max_m=12))
    def test_cut_vertices_match_naive(self, g):
        assert cd.cut_vertices(g) == frozenset(naive_cut_vertices(g))

    def test_biconnected(self):
        assert cd.is_biconnected(cd.MultiGraph(1, []))
        assert cd.is_biconnected(cd.MultiGraph(2, [(0, 1)]))
        assert cd.is_biconnected(cd.gen_cycle(5))
        assert cd.is_biconnected(mk_k5())
        assert not cd.is_biconnected(mk_bowtie())
        assert not cd.is_biconnected(cd.MultiGraph(3, [(0, 1)]))

    def test_two_edge_connected(self):
        assert cd.is_two_edge_connected(cd.gen_cycle(3))
        assert not cd.is_two_edge_connected(cd.MultiGraph(2, [(0, 1)]))
        assert cd.is_two_edge_connected(cd.gen_eulerian_multiedge(1))

    @given(multigraphs(max_n=7, max_m=12))
    def test_connectivity_predicates_match_naive(self, g):
        """The component count of the lowpoint DFS, on graphs that may be
        disconnected or have isolated vertices."""
        comps = naive_components(g)
        connected = len(comps) == 1
        assert cd.connected_components(g) == comps
        assert cd.is_biconnected(g) == (connected and not naive_cut_vertices(g))
        assert cd.is_two_edge_connected(g) == (connected and not naive_bridges(g))


class TestBlocks:
    def test_bowtie_blocks(self):
        forest = cd.blocks(mk_bowtie())
        assert len(forest.blocks) == 2
        for block in forest.blocks:
            assert canon(block.graph) == (3, ((0, 1), (0, 2), (1, 2)))
        assert forest.cut_vertices == frozenset({0})
        assert forest.block_cut_incidence == {0: (0, 1)}

    def test_blocks_partition_edges(self):
        g = cd.MultiGraph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
        forest = cd.blocks(g)
        all_edges = sorted(e for b in forest.blocks for e in b.edge_ids)
        assert all_edges == list(range(g.m))
        for block in forest.blocks:
            assert cd.is_biconnected(block.graph)

    @given(multigraphs(max_n=7, max_m=12))
    def test_blocks_partition_edges_random(self, g):
        forest = cd.blocks(g)
        all_edges = sorted(e for b in forest.blocks for e in b.edge_ids)
        assert all_edges == list(range(g.m))
        for block in forest.blocks:
            assert cd.is_biconnected(block.graph)
            assert block.graph._biconnected
            # the mark is no part of the graph's value
            plain = cd.MultiGraph(block.graph.n, block.graph.edges())
            assert not plain._biconnected
            assert plain == block.graph and hash(plain) == hash(block.graph)
            # local ids map back to the parent's endpoints
            for le in range(block.graph.m):
                a, b = block.graph.endpoints(le)
                pa, pb = g.endpoints(block.edge_ids[le])
                assert {block.vertex_ids[a], block.vertex_ids[b]} == {pa, pb}

    def test_isolated_vertex_becomes_block(self):
        g = cd.MultiGraph(3, [(0, 1)])
        forest = cd.blocks(g)
        sizes = sorted((b.graph.n, b.graph.m) for b in forest.blocks)
        assert sizes == [(1, 0), (2, 1)]


class TestSplitAtCutVertex:
    def test_bowtie_split(self):
        g = mk_bowtie()
        h, v1, v2 = cd.split_at_cut_vertex(g, 0)
        assert (v1, v2) == (0, 5)
        assert h.n == g.n + 1 and h.m == g.m
        comps = cd.connected_components(h)
        assert len(comps) == 2
        assert len(cd.connected_components(g)) == 1

    def test_keeps_smallest_neighbour_side(self):
        # path 1-0-2: neighbour 1 is smaller, so component {1} keeps vertex 0
        g = cd.MultiGraph(3, [(0, 1), (0, 2)])
        h, v1, v2 = cd.split_at_cut_vertex(g, 0)
        assert canon(h) == (4, ((0, 1), (2, 3)))

    def test_rejects_non_cut(self):
        with pytest.raises(cd.NotACutVertexError):
            cd.split_at_cut_vertex(cd.gen_cycle(4), 0)
        with pytest.raises(cd.NotACutVertexError):
            cd.split_at_cut_vertex(cd.MultiGraph(2, [(0, 1)]), 0)

    @given(built_graphs(max_n=10))
    def test_split_then_identify_restores_input(self, g):
        cuts = cd.cut_vertices(g)
        if not cuts:
            return
        v = min(cuts)
        h, v1, v2 = cd.split_at_cut_vertex(g, v)
        comps = cd.connected_components(h)
        side1 = next(c for c in comps if v1 in c)
        side2 = next(c for c in comps if v2 in c)
        g1, v1ids, _ = cd.induced_subgraph(h, side1)
        g2, v2ids, _ = cd.induced_subgraph(h, side2)
        back, app = cd.vertex_identification(
            g1, v1ids.index(v1), g2, v2ids.index(v2)
        )
        to_g = {}
        for w in range(g1.n):
            to_g[app.vertex_map1[w]] = v1ids[w]
        for w in range(g2.n):
            to_g[app.vertex_map2[w]] = v2ids[w]
        pairs = []
        for a, b in back.edges():
            x, y = to_g[a], to_g[b]
            x = v if x == v2 else x
            y = v if y == v2 else y
            pairs.append((x, y) if x <= y else (y, x))
        assert (back.n, tuple(sorted(pairs))) == canon(g)


class TestEulerianStructure:
    @given(eulerian_graphs(max_n=10, max_extra=3))
    def test_even_connected_graphs_are_bridgeless(self, g):
        assert cd.find_cut_edge(g) is None

    @given(eulerian_graphs(max_n=10, max_extra=3))
    def test_blocks_inherit_even_degrees(self, g):
        for block in cd.blocks(g).blocks:
            h = block.graph
            assert all(cd.degree(h, v) % 2 == 0 for v in range(h.n))
