"""The verdict route of is_cycle_number_unique against the worklist reference.

The reference verdict of a block is "every final component of
ve_components(block) is an Eulerian multiedge". The route decides blocks
with the series-parallel tables alone, so it is tied here to that
reference. ve_components itself skips its loop on a block without a
simple edge, and that shortcut is tied here to the loop it skips.
"""

from collections import Counter

from hypothesis import given

import cycledec as cd
from cycledec import recognition
from cycledec.cli import main
from conftest import eulerian_graphs, multigraphs
from helpers import elimination_tw_le_2, mk_k5, small_eulerian_corpus


def reference_block_verdicts(g, order_seed=None):
    out = []
    for block in cd.blocks(g).blocks:
        h = block.graph
        if h.m == 0:
            continue
        _, trace = cd.ve_components(h, order_seed=order_seed)
        out.append((h, all(cd.is_eulerian_multiedge(c.graph) for c in trace.components)))
    return out


def reference_witness(g, order_seed=None):
    """First non-multiedge worklist component of the first failing block."""
    for h, unique in reference_block_verdicts(g):
        if not unique:
            _, trace = cd.ve_components(h, order_seed=order_seed)
            return next(c.graph for c in trace.components if not cd.is_eulerian_multiedge(c.graph))
    return None


def assert_route_matches(g, order_seed=None):
    ref = reference_block_verdicts(g, order_seed)
    verdict = cd.is_cycle_number_unique(g, order_seed=order_seed, every_block=True)
    assert list(verdict.block_verdicts) == ref
    assert verdict.unique == all(u for _, u in ref)
    assert bool(cd.is_cycle_number_unique(g, order_seed=order_seed)) == verdict.unique
    return verdict.unique


def family_instances():
    for n in (3, 10, 40, 150, 1000):
        seed = 7_000 + n
        yield cd.gen_cycle(n)
        yield cd.gen_closed_necklace(n)
        yield cd.gen_class_G(n, seed)[0]
        yield cd.gen_class_H(n, seed)
        yield cd.gen_class_H_prime(n, seed)
        yield cd.gen_random_eulerian(n, n // 4, seed)


def simple_edge_free(h):
    pairs = Counter((u, v) if u < v else (v, u) for u, v in h.edges())
    return 1 not in pairs.values()


class TestDifferential:
    def test_acceptance_corpus(self):
        checked = 0
        for g in small_eulerian_corpus(5000):
            unique = assert_route_matches(g)
            # the gate makes "unique implies width <= 2" true by construction
            # on the route; here it is checked against the ungated worklist
            if unique:
                assert cd.is_treewidth_at_most_2(g)
            checked += 1
        assert checked == 5000

    def test_every_generator_family(self):
        outcomes = Counter()
        for g in family_instances():
            outcomes[assert_route_matches(g)] += 1
        assert outcomes[True] and outcomes[False]

    def test_order_seeds(self):
        graphs = small_eulerian_corpus(300) + [
            cd.gen_cycle(30), cd.gen_class_H(30, 5), cd.gen_random_eulerian(30, 6, 5),
            cd.gen_class_H_prime(60, 5), cd.gen_class_G(60, 5)[0],
        ]
        for g in graphs:
            for seed in (0, 1, 17, 2024):
                assert_route_matches(g, order_seed=seed)


def assert_final_as_it_stands(h):
    """A full probe finds no bridge at any vertex of h, so the shortcut that
    answers every probe at once keeps ve_components' trace: h is its only
    component, in any order."""
    work = recognition._WorkGraph(h)
    assert work.final
    work.final = False
    for v in range(h.n):
        assert recognition._probe(work, v) is None
    for seed in (None, 5):
        final, trace = cd.ve_components(h, order_seed=seed)
        assert final == h and trace.steps == ()
        (comp,) = trace.components
        assert comp.graph == h
        assert comp.vertex_ids == tuple(range(h.n)) and comp.edge_ids == tuple(range(h.m))


class TestShortcutSoundness:
    @given(eulerian_graphs(max_n=9, max_extra=2))
    def test_tables_keep_the_numbers(self, g):
        if g.m > 14:
            return
        for block in cd.blocks(g).blocks:
            h = block.graph
            if h.m == 0:
                continue
            numbers = cd.series_parallel_numbers(h)
            assert (numbers is None) == (not elimination_tw_le_2(h))
            if numbers is not None:
                res = cd.oracle_cycle_numbers(h)
                assert numbers == (res.c_min, res.nu_max)

    def test_tables_named_instances(self):
        assert cd.series_parallel_numbers(cd.gen_cycle(9)) == (1, 1)
        assert cd.series_parallel_numbers(cd.gen_closed_necklace(4)) == (2, 4)
        assert cd.series_parallel_numbers(mk_k5()) is None
        # the first split stops the reduction: a doubled triangle inside
        # a long doubled cycle already has two sizes
        early = cd.series_parallel_numbers(cd.gen_closed_necklace(40), stop_at_split=True)
        assert early[0] != early[1]

    @given(multigraphs(max_n=7, max_m=10))
    def test_doubled_blocks_have_no_separator(self, g):
        doubled = cd.MultiGraph(g.n, [e for e in g.edges() for _ in range(2)])
        for block in cd.blocks(doubled).blocks:
            h = block.graph
            assert simple_edge_free(h)
            if h.m:
                assert_final_as_it_stands(h)

    def test_corpus_blocks_without_simple_edges_are_final(self):
        graphs = small_eulerian_corpus(1000) + [cd.gen_closed_necklace(k) for k in range(2, 12)]
        checked = 0
        for g in graphs:
            for block in cd.blocks(g).blocks:
                h = block.graph
                if h.m == 0 or not simple_edge_free(h):
                    continue
                assert_final_as_it_stands(h)
                checked += 1
        assert checked > 0


def gated_failure_in_block_one():
    """C4, then a treewidth-4 block that the worklist still splits, then a
    doubled triangle that fails as well."""
    bad, _ = cd.edge_identification(mk_k5(), 0, 0, cd.gen_cycle(6), 0, 0)
    g, _ = cd.vertex_identification(cd.gen_cycle(4), 0, bad, 0)
    g, _ = cd.vertex_identification(g, 5, cd.gen_closed_necklace(3), 0)
    return g


class TestLazyWitness:
    def test_gate_decides_a_later_block(self):
        g = gated_failure_in_block_one()
        blocks = [b.graph for b in cd.blocks(g).blocks if b.graph.m]
        assert len(blocks) == 3
        assert cd.is_cycle_number_unique(blocks[0])
        assert not cd.is_treewidth_at_most_2(blocks[1])
        _, trace = cd.ve_components(blocks[1])
        assert trace.steps, "the worklist must split the failing block"
        for seed in (None, 0, 3, 11):
            verdict = cd.is_cycle_number_unique(g, order_seed=seed)
            assert not verdict
            expected = reference_witness(g, seed)
            assert verdict.witness == expected
            assert verdict.witness is verdict.witness
            assert expected.n == 5 and expected.m == 10

    def test_random_graphs_and_seeds(self):
        for i in range(12):
            g = cd.gen_random_eulerian(12 + i, 3, 500 + i)
            for seed in (None, 1, 9):
                verdict = cd.is_cycle_number_unique(g, order_seed=seed)
                assert verdict.witness == reference_witness(g, seed)

    def test_biconnected_entry_point(self):
        g = cd.gen_random_eulerian(20, 5, 77)
        (h,) = [b.graph for b in cd.blocks(g).blocks if b.graph.m]
        for seed in (None, 4):
            verdict = cd.is_cycle_number_unique_biconnected(h, order_seed=seed)
            assert not verdict
            assert verdict.witness == reference_witness(h, seed)

    def test_cli_witness_under_randomized_order(self, tmp_path, capsys):
        g = gated_failure_in_block_one()
        path = tmp_path / "g.graph"
        path.write_text(cd.write_graph(g))
        for seed in (None, 6):
            argv = ["check", "--witness", str(path)]
            if seed is not None:
                argv[1:1] = ["--randomized-order", str(seed)]
            assert main(argv) == 1
            out = capsys.readouterr().out
            head = "NOT-UNIQUE\nWITNESS\n" + cd.write_graph(reference_witness(g, seed))
            assert out.startswith(head)
