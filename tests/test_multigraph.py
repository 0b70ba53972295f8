import tracemalloc

import pytest
from hypothesis import given

import cycledec as cd
from conftest import graph_texts, multigraphs
from helpers import assert_same_graph, canon, mk_bowtie, naive_parse


class TestConstruction:
    def test_empty_vertex_set_rejected(self):
        with pytest.raises(cd.GraphError):
            cd.MultiGraph(0, [])

    def test_loop_rejected(self):
        with pytest.raises(cd.LoopEdgeError):
            cd.MultiGraph(3, [(1, 1)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(cd.VertexOutOfRangeError):
            cd.MultiGraph(2, [(0, 2)])
        with pytest.raises(cd.VertexOutOfRangeError):
            cd.MultiGraph(2, [(-1, 0)])

    def test_vertex_budget_checked_before_allocating(self, monkeypatch):
        budget = 100_000
        monkeypatch.setattr(cd.multigraph, "MAX_VERTICES", budget)
        assert cd.MultiGraph(budget, []).n == budget
        tracemalloc.start()
        try:
            with pytest.raises(cd.TooLargeError, match=f"n={budget + 1} exceeds the vertex budget {budget}"):
                cd.MultiGraph(budget + 1, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one empty incidence list per vertex would take several MB
        assert peak < 100_000

    def test_derived_graphs_may_pass_the_budget(self, monkeypatch):
        # graphs that grow an accepted input by a vertex per step or split
        # are built on the unchecked path
        g, bowtie = cd.gen_cycle(5), mk_bowtie()
        monkeypatch.setattr(cd.multigraph, "MAX_VERTICES", 5)
        final, trace = cd.ve_components(g)
        assert final.n == 5 + len(trace.steps) > 5
        assert cd.replay_trace(trace) == g
        assert cd.ve_separation_step(g, cd.find_ve_separator(g))[0].n == 6
        assert cd.test_and_decompose(g, 0)[0].n == 6
        assert cd.split_at_cut_vertex(bowtie, 0)[0].n == 6

    def test_parallel_edges_kept_in_order(self):
        g = cd.MultiGraph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 3
        assert g.endpoints(1) == (1, 0)

    def test_incidence_sorted(self):
        g = cd.MultiGraph(3, [(1, 2), (0, 1), (0, 2)])
        assert g.incident(1) == (0, 1)
        assert g.incident(0) == (1, 2)

    def test_other_endpoint(self):
        g = cd.MultiGraph(3, [(0, 1), (1, 2)])
        assert g.other(0, 0) == 1
        assert g.other(0, 1) == 0
        with pytest.raises(cd.InvalidVertexError):
            g.other(0, 2)

    def test_equality_and_hash(self):
        a = cd.MultiGraph(2, [(0, 1), (0, 1)])
        b = cd.MultiGraph(2, [(0, 1), (0, 1)])
        c = cd.MultiGraph(2, [(0, 1), (1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestFreeFunctions:
    def test_degree_counts_parallel(self):
        g = cd.MultiGraph(3, [(0, 1), (0, 1), (1, 2)])
        assert cd.degree(g, 0) == 2
        assert cd.degree(g, 1) == 3
        assert cd.neighbours(g, 1) == frozenset({0, 2})

    def test_is_eulerian(self):
        assert cd.is_eulerian(cd.MultiGraph(1, []))
        assert cd.is_eulerian(cd.gen_cycle(4))
        assert not cd.is_eulerian(cd.MultiGraph(3, [(0, 1), (1, 2)]))
        two_comp = cd.MultiGraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert not cd.is_eulerian(two_comp)

    def test_is_eulerian_multiedge(self):
        assert cd.is_eulerian_multiedge(cd.gen_eulerian_multiedge(3))
        assert not cd.is_eulerian_multiedge(cd.MultiGraph(2, [(0, 1)]))
        assert not cd.is_eulerian_multiedge(cd.MultiGraph(2, [(0, 1)] * 3))
        assert not cd.is_eulerian_multiedge(cd.gen_cycle(3))

    def test_resolve_degree_two(self):
        g = cd.MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
        h, vmap, emap = cd.resolve(g, 1)
        assert canon(h) == (2, ((0, 1), (0, 1)))
        assert vmap[1] is None
        assert emap[0] is None and emap[1] is None

    def test_resolve_rejects_wrong_degree(self):
        with pytest.raises(cd.DegreeNotTwoError):
            cd.resolve(mk_bowtie(), 0)
        with pytest.raises(cd.NeighboursNotDistinctError):
            cd.resolve(cd.gen_eulerian_multiedge(1), 0)

    def test_induced_subgraph(self):
        g = cd.MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
        h, verts, edges = cd.induced_subgraph(g, [1, 2, 3])
        assert verts == (1, 2, 3)
        assert edges == (1, 2, 4)
        assert canon(h) == (3, ((0, 1), (0, 2), (1, 2)))


class TestCycleValidation:
    def test_valid_decomposition(self):
        g = cd.gen_cycle(3)
        dec = cd.CycleDecomposition((cd.Cycle(((0, 0), (1, 1), (2, 2))),))
        cd.validate_cycle_decomposition(g, dec)

    def test_rejects_nonpartition(self):
        g = cd.gen_eulerian_multiedge(2)
        dec = cd.CycleDecomposition((cd.Cycle(((0, 0), (1, 1))),))
        with pytest.raises(cd.GraphError):
            cd.validate_cycle_decomposition(g, dec)

    def test_rejects_repeated_vertex(self):
        g = cd.MultiGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
        bad = cd.CycleDecomposition(
            (cd.Cycle(((0, 0), (1, 1), (2, 2))), cd.Cycle(((2, 3), (3, 4))))
        )
        with pytest.raises(cd.GraphError):
            cd.validate_cycle_decomposition(g, bad)


class TestSerialization:
    def test_parse_basic(self):
        g = cd.parse_graph("p 3 2\ne 0 1\ne 1 2\n")
        assert canon(g) == (3, ((0, 1), (1, 2)))

    def test_parse_comments_and_blanks(self):
        text = "# header\n\np 2 1\n# middle\ne 0 1\n\n"
        assert cd.parse_graph(text).m == 1

    def test_round_trip(self):
        g = cd.MultiGraph(3, [(0, 1), (0, 1), (1, 2), (2, 0)])
        assert cd.parse_graph(cd.write_graph(g)) == g

    @given(multigraphs())
    def test_round_trip_random(self, g):
        assert cd.parse_graph(cd.write_graph(g)) == g

    @given(graph_texts())
    def test_parse_follows_the_format(self, text):
        # parse_graph checks every line itself, so it builds its graph
        # without the constructor's checks: it must still return the
        # checked graph, or raise the error the format calls for
        want = naive_parse(text)
        if isinstance(want, tuple):
            g = cd.parse_graph(text)
            assert g == cd.MultiGraph(*want)
            assert_same_graph(g)
        else:
            with pytest.raises(cd.GraphError) as exc:
                cd.parse_graph(text)
            assert exc.type is want

    def test_error_carries_line_number(self):
        with pytest.raises(cd.GraphSyntaxError) as exc:
            cd.parse_graph("p 2 2\ne 0 1\ne 0 9\n")
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    def test_loop_in_file(self):
        with pytest.raises(cd.LoopEdgeError):
            cd.parse_graph("p 2 1\ne 1 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(cd.GraphSyntaxError):
            cd.parse_graph("p 2 2\ne 0 1\n")
        with pytest.raises(cd.GraphSyntaxError):
            cd.parse_graph("p 2 1\ne 0 1\ne 1 0\n")

    def test_garbage_rejected(self):
        with pytest.raises(cd.GraphSyntaxError):
            cd.parse_graph("q 2 1\ne 0 1\n")
        with pytest.raises(cd.GraphSyntaxError):
            cd.parse_graph("p 2 1\ne zero one\n")
