import hashlib
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cycledec as cd
from conftest import eulerian_graphs, multigraphs
from helpers import brute_tw_le_2, check_cycle, elimination_tw_le_2, mk_bowtie, mk_k4, mk_k5, small_eulerian_corpus


class TestCycleNumbers:
    def test_cycle_is_forced(self):
        res = cd.oracle_cycle_numbers(cd.gen_cycle(5))
        assert (res.c_min, res.nu_max) == (1, 1)

    def test_multiedges_force_pairings(self):
        for k in range(1, 9):
            res = cd.oracle_cycle_numbers(cd.gen_eulerian_multiedge(k))
            assert (res.c_min, res.nu_max) == (k, k)

    def test_necklace3(self):
        res = cd.oracle_cycle_numbers(cd.gen_closed_necklace(3))
        assert (res.c_min, res.nu_max) == (2, 3)

    def test_k5(self):
        res = cd.oracle_cycle_numbers(mk_k5())
        assert (res.c_min, res.nu_max) == (2, 3)

    def test_bowtie(self):
        res = cd.oracle_cycle_numbers(mk_bowtie())
        assert (res.c_min, res.nu_max) == (2, 2)

    def test_single_vertex(self):
        res = cd.oracle_cycle_numbers(cd.MultiGraph(1, []))
        assert (res.c_min, res.nu_max) == (0, 0)
        assert res.min_witness.cycles == ()

    def test_rejects_non_eulerian(self):
        with pytest.raises(cd.NotEulerianError):
            cd.oracle_cycle_numbers(cd.MultiGraph(3, [(0, 1), (1, 2)]))

    def test_edge_budget(self):
        with pytest.raises(cd.TooLargeError):
            cd.oracle_cycle_numbers(cd.gen_cycle(25))
        res = cd.oracle_cycle_numbers(cd.gen_cycle(26), edge_limit=26)
        assert (res.c_min, res.nu_max) == (1, 1)

    def test_search_state_cap(self, monkeypatch):
        # K8 minus a perfect matching: 6-regular, m = 24, the densest
        # graphs within the default budget
        g = cd.MultiGraph(8, [(i, j) for i in range(8) for j in range(i + 1, 8) if j != i + 4])
        assert g.m == cd.oracle.DEFAULT_EDGE_LIMIT
        res = cd.oracle_cycle_numbers(g)
        assert (res.c_min, res.nu_max) == (3, 8)
        monkeypatch.setattr(cd.oracle, "MAX_SEARCH_STATES", 10**5)
        assert cd.oracle_cycle_numbers(g) == res
        monkeypatch.setattr(cd.oracle, "MAX_SEARCH_STATES", 1000)
        with pytest.raises(cd.TooLargeError, match="more than 1000 memo entries and listed cycles"):
            cd.oracle_cycle_numbers(g)
        # the cycles of the first branching count before any memo entry exists
        inc = cd.oracle._incidence(g)
        first = len(cd.oracle._cycles_through(inc, (1 << g.m) - 1, 0, *g.endpoints(0)))
        monkeypatch.setattr(cd.oracle, "MAX_SEARCH_STATES", first - 1)
        with pytest.raises(cd.TooLargeError):
            cd.oracle_cycle_numbers(g)

    @given(eulerian_graphs(max_n=7, max_extra=2))
    def test_witnesses_validate(self, g):
        if g.m > 14:
            return
        res = cd.oracle_cycle_numbers(g)
        assert res.c_min <= res.nu_max
        assert len(res.min_witness.cycles) == res.c_min
        assert len(res.max_witness.cycles) == res.nu_max
        cd.validate_cycle_decomposition(g, res.min_witness)
        cd.validate_cycle_decomposition(g, res.max_witness)


class TestCyclePairScan:
    def test_necklace3_pair(self):
        pair = cd.has_triple_intersecting_cycle_pair(cd.gen_closed_necklace(3))
        assert pair is not None
        a, b = pair
        check_cycle(cd.gen_closed_necklace(3), a)
        check_cycle(cd.gen_closed_necklace(3), b)
        assert not set(a.edge_ids) & set(b.edge_ids)
        assert len(set(a.vertex_ids) & set(b.vertex_ids)) >= 3
        # the two triangles
        assert len(a) == 3 and len(b) == 3

    def test_bowtie_none(self):
        assert cd.has_triple_intersecting_cycle_pair(mk_bowtie()) is None

    def test_k5_pair(self):
        g = mk_k5()
        pair = cd.has_triple_intersecting_cycle_pair(g)
        assert pair is not None
        a, b = pair
        check_cycle(g, a)
        check_cycle(g, b)
        assert not set(a.edge_ids) & set(b.edge_ids)
        assert len(set(a.vertex_ids) & set(b.vertex_ids)) >= 3

    def test_enumeration_unique_and_complete(self):
        g = mk_k4()
        cycles = cd.enumerate_simple_cycles(g)
        keys = {frozenset(c.edge_ids) for c in cycles}
        assert len(keys) == len(cycles)
        # K4: 4 triangles + 3 four-cycles
        assert sorted(len(c) for c in cycles) == [3, 3, 3, 3, 4, 4, 4]

    def test_parallel_pair_counts_as_cycle(self):
        cycles = cd.enumerate_simple_cycles(cd.gen_eulerian_multiedge(2))
        assert sorted(len(c) for c in cycles) == [2, 2, 2, 2, 2, 2]

    def test_cycle_cap_is_exact(self):
        g = cd.MultiGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)] * 2)
        count = len(cd.enumerate_simple_cycles(g))
        assert len(cd.enumerate_simple_cycles(g, cycle_cap=count)) == count
        for scan in (cd.enumerate_simple_cycles, cd.has_triple_intersecting_cycle_pair):
            with pytest.raises(cd.TooLargeError, match=f"more than {count - 1} simple cycles, the cycle cap"):
                scan(g, cycle_cap=count - 1)

    def test_cycle_cap_stops_the_listing(self):
        # a doubled K8 has more than 10**5 simple cycles through its first
        # few edges alone; the walk must give up at cycle 1001, not list
        # them all before it looks at the cap
        g = cd.MultiGraph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)] * 2)
        tracemalloc.start()
        try:
            for scan in (cd.enumerate_simple_cycles, cd.has_triple_intersecting_cycle_pair):
                with pytest.raises(cd.TooLargeError, match="more than 1000 simple cycles"):
                    scan(g, edge_limit=g.m, cycle_cap=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


@st.composite
def pieced_multigraphs(draw):
    """Up to three random multigraphs side by side, a few random edges
    between them and isolated vertices: odd degrees, bridges, cut vertices
    and several components all occur."""
    edges: list[tuple[int, int]] = []
    parts = []
    n = 0
    for _ in range(draw(st.integers(1, 3))):
        part = draw(multigraphs(max_n=7, max_m=12))
        edges += [(n + u, n + v) for u, v in part.edges()]
        parts.append(range(n, n + part.n))
        n += part.n
    for _ in range(draw(st.integers(0, 2)) if len(parts) > 1 else 0):
        p1, p2 = draw(st.lists(st.sampled_from(parts), min_size=2, max_size=2, unique=True))
        edges.append((draw(st.sampled_from(p1)), draw(st.sampled_from(p2))))
    return cd.MultiGraph(n + draw(st.integers(0, 2)), edges)


class TestTreewidth:
    def test_known_values(self):
        assert cd.is_treewidth_at_most_2(cd.gen_cycle(7))
        assert cd.is_treewidth_at_most_2(cd.gen_closed_necklace(5))
        assert cd.is_treewidth_at_most_2(cd.MultiGraph(1, []))
        assert not cd.is_treewidth_at_most_2(mk_k4())
        assert not cd.is_treewidth_at_most_2(mk_k5())

    def test_parallel_edges_ignored(self):
        doubled_k4 = cd.MultiGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)] * 2)
        assert not cd.is_treewidth_at_most_2(doubled_k4)
        assert cd.is_treewidth_at_most_2(cd.gen_eulerian_multiedge(4))

    @given(eulerian_graphs(max_n=8, max_extra=3))
    def test_matches_elimination_search(self, g):
        assert cd.is_treewidth_at_most_2(g) == brute_tw_le_2(g)

    @given(pieced_multigraphs())
    def test_matches_elimination_reference(self, g):
        assert cd.is_treewidth_at_most_2(g) == elimination_tw_le_2(g)

    def test_every_family_matches_elimination_reference(self):
        outcomes = {True: 0, False: 0}
        for n in (2, 3, 5, 16, 64, 250, 1000, 2000):
            for seed in (1, 2):
                for g in (cd.gen_eulerian_multiedge(n), cd.gen_cycle(n), cd.gen_closed_necklace(n),
                          cd.gen_class_G(n, seed)[0], cd.gen_class_H(n, seed), cd.gen_class_H_prime(n, seed),
                          cd.gen_random_eulerian(n, n // 4, seed), cd.gen_random_eulerian(n, 2, seed)):
                    want = elimination_tw_le_2(g)
                    assert cd.is_treewidth_at_most_2(g) == want
                    outcomes[want] += 1
        assert outcomes[True] and outcomes[False]


class TestMembership:
    def test_class_h(self):
        assert cd.is_class_H(cd.gen_closed_necklace(5))
        n2, n3 = cd.gen_closed_necklace(2), cd.gen_closed_necklace(3)
        joined, _ = cd.edge_identification(n2, 0, 0, n3, 0, 0)
        assert cd.is_class_H(joined)
        assert not cd.is_class_H(mk_k5())
        assert not cd.is_class_H(cd.gen_cycle(5))
        assert not cd.is_class_H(mk_bowtie())

    def test_class_h_closed_under_edge_identification(self):
        for i in range(10):
            rng = cd.Rng(7000 + i)
            g1 = cd.gen_class_H(2 + rng.below(12), 100 + i)
            g2 = cd.gen_class_H(2 + rng.below(12), 200 + i)
            e1 = rng.below(g1.m)
            e2 = rng.below(g2.m)
            u1 = g1.endpoints(e1)[rng.below(2)]
            u2 = g2.endpoints(e2)[rng.below(2)]
            joined, _ = cd.edge_identification(g1, e1, u1, g2, e2, u2)
            assert cd.is_class_H(joined)

    def test_class_h_prime(self):
        assert cd.is_class_H_prime(cd.gen_cycle(9))
        assert cd.is_class_H_prime(cd.subdivide_edge(cd.gen_closed_necklace(3), 0))
        assert cd.is_class_H_prime(mk_bowtie())
        assert cd.is_class_H_prime(cd.MultiGraph(1, []))
        assert not cd.is_class_H_prime(mk_k5())
        six_bundle = cd.gen_eulerian_multiedge(3)
        assert not cd.is_class_H_prime(six_bundle)  # degree 6

    def test_closed_necklace_recognizer(self):
        assert cd.is_closed_necklace(cd.gen_closed_necklace(2))
        assert cd.is_closed_necklace(cd.gen_closed_necklace(6))
        assert not cd.is_closed_necklace(cd.gen_eulerian_multiedge(3))
        assert not cd.is_closed_necklace(cd.gen_cycle(4))
        assert not cd.is_closed_necklace(cd.MultiGraph(1, []))
        # right counts, wrong structure: two disjoint doubled cycles are not connected
        two = cd.MultiGraph(4, [(0, 1), (0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3), (2, 3)])
        assert not cd.is_closed_necklace(two)


class TestNecklaceDecomposition:
    def test_leaf(self):
        tree = cd.decompose_class_H(cd.gen_closed_necklace(4))
        assert tree.parts == ()
        assert tree.cut is None
        assert cd.verify_necklace_replay(tree)

    def test_one_split(self):
        n2 = cd.gen_eulerian_multiedge(2)
        g, _ = cd.edge_identification(n2, 0, 0, n2, 0, 0)
        tree = cd.decompose_class_H(g)
        assert tree.cut == (6, 7)
        leaves = tree.leaves()
        assert sorted(leaf.graph.n for leaf in leaves) == [2, 2]
        assert all(cd.is_closed_necklace(leaf.graph) for leaf in leaves)
        assert cd.verify_necklace_replay(tree)

    def test_two_splits(self):
        n2 = cd.gen_eulerian_multiedge(2)
        inner, _ = cd.edge_identification(n2, 0, 0, n2, 0, 0)
        g, _ = cd.edge_identification(inner, 0, 0, cd.gen_closed_necklace(3), 0, 0)
        tree = cd.decompose_class_H(g)
        leaves = tree.leaves()
        assert sorted(leaf.graph.n for leaf in leaves) == [2, 2, 3]
        assert cd.verify_necklace_replay(tree)

    def test_rejects_outsiders(self):
        with pytest.raises(cd.NotClassHError):
            cd.decompose_class_H(mk_k5())
        with pytest.raises(cd.NotClassHError):
            cd.decompose_class_H(cd.gen_cycle(4))

    def test_leaf_multiset_invariant_under_cut_choice(self):
        for seed in range(8):
            g = cd.gen_class_H(14, seed)
            base = sorted(l.graph.n for l in cd.decompose_class_H(g).leaves())
            for cut_seed in (1, 2, 3):
                alt = sorted(l.graph.n for l in cd.decompose_class_H(g, cut_seed=cut_seed).leaves())
                assert alt == base, (seed, cut_seed, base, alt)


class TestFrozenSearch:
    """One digest of the exhaustive engines' full output, witnesses and walk
    order included, over 405 small graphs. It pins the enumeration order and
    the first-strict-improvement tie-break across rewrites of the search."""

    DIGEST = "8debe3e9bacae11fb1483338c59c6dcfc0cd28f85f5d38314ac20b4d5b0b210e"

    def test_witnesses_pairs_and_cycles(self):
        graphs = small_eulerian_corpus(400, max_m=20, max_n=12) + [cd.gen_class_H(n, 40 + n) for n in range(2, 7)]
        h = hashlib.sha256()
        for g in graphs:
            res = cd.oracle_cycle_numbers(g)
            pair = cd.has_triple_intersecting_cycle_pair(g)
            cycles = cd.enumerate_simple_cycles(g)
            h.update(repr((res.c_min, res.nu_max, res.min_witness.cycles, res.max_witness.cycles,
                           pair and (pair[0].steps, pair[1].steps), [c.steps for c in cycles])).encode())
        assert h.hexdigest() == self.DIGEST
