import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cycledec as cd
from cycledec import generators
from conftest import seeds
from helpers import operator_replay


class TestRng:
    def test_frozen_stream(self):
        # references computed with a standalone splitmix64 + xorshift64* script
        r = cd.Rng(0)
        assert [hex(r.next_u64()) for _ in range(3)] == [
            "0x7bbcb40d550682d0",
            "0xde7fe413d00cc9fd",
            "0xb3c638353c668c91",
        ]
        r = cd.Rng(1)
        assert [hex(r.next_u64()) for _ in range(3)] == [
            "0x4b46a55df3611b9b",
            "0xd7e1f1410e763ef4",
            "0x5f14ec66975f9b06",
        ]
        r = cd.Rng(2**64 - 1)
        assert hex(r.next_u64()) == "0x79ce65d09240e13"

    def test_below_frozen(self):
        r = cd.Rng(42)
        assert [r.below(10) for _ in range(12)] == [2, 3, 9, 3, 2, 3, 1, 9, 7, 3, 2, 4]

    @given(seeds, st.integers(min_value=1, max_value=10_000))
    def test_below_in_range(self, seed, n):
        r = cd.Rng(seed)
        for _ in range(20):
            assert 0 <= r.below(n) < n

    def test_below_rejects_empty_range(self):
        with pytest.raises(cd.InvalidParamError):
            cd.Rng(0).below(0)

    @given(seeds)
    def test_shuffle_permutes(self, seed):
        items = list(range(17))
        shuffled = items[:]
        cd.Rng(seed).shuffle(shuffled)
        assert sorted(shuffled) == items

    @given(seeds)
    def test_same_seed_same_stream(self, seed):
        a, b = cd.Rng(seed), cd.Rng(seed)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


class TestBaseFamilies:
    def test_multiedge(self):
        g = cd.gen_eulerian_multiedge(3)
        assert (g.n, g.m) == (2, 6)
        assert cd.is_eulerian_multiedge(g)

    def test_cycle(self):
        g = cd.gen_cycle(4)
        assert (g.n, g.m) == (4, 4)
        assert tuple(g.edges()) == ((0, 1), (1, 2), (2, 3), (3, 0))

    def test_necklace(self):
        g = cd.gen_closed_necklace(3)
        assert (g.n, g.m) == (3, 6)
        assert cd.is_closed_necklace(g)

    def test_subdivide(self):
        # new vertex takes over the old edge slot: (0,1) becomes (0,3) + (3,1)
        g = cd.subdivide_edge(cd.gen_cycle(3), 0)
        assert (g.n, g.m) == (4, 4)
        assert g.endpoints(0) == (0, 3) and g.endpoints(3) == (3, 1)
        assert all(cd.degree(g, v) == 2 for v in range(4))
        assert cd.is_eulerian(g)

    def test_param_floors(self):
        with pytest.raises(cd.InvalidParamError):
            cd.gen_eulerian_multiedge(0)
        with pytest.raises(cd.InvalidParamError):
            cd.gen_cycle(1)
        with pytest.raises(cd.InvalidParamError):
            cd.gen_closed_necklace(1)
        with pytest.raises(cd.InvalidParamError):
            cd.gen_class_G(1, 0)
        with pytest.raises(cd.InvalidParamError):
            cd.gen_class_G(4, 0, max_leaf=0)
        with pytest.raises(cd.InvalidParamError):
            cd.gen_class_H(1, 0)
        with pytest.raises(cd.InvalidParamError):
            cd.gen_class_H_prime(0, 0)
        with pytest.raises(cd.InvalidParamError):
            cd.gen_random_eulerian(0, 0, 0)
        with pytest.raises(cd.InvalidParamError):
            cd.gen_random_eulerian(4, -1, 0)


class TestBuiltFamily:
    @given(st.integers(min_value=2, max_value=60), seeds)
    def test_size_and_parity(self, n, seed):
        g, script = cd.gen_class_G(n, seed, max_leaf=2)
        assert g.n == n
        assert cd.is_eulerian(g)
        assert g.m <= 2 * 2 * (n - 1)

    def test_script_replays_identically(self):
        for n, seed in ((2, 0), (7, 1), (23, 2), (50, 7)):
            g, script = cd.gen_class_G(n, seed)
            assert cd.replay_script(script) == g

    def test_members_have_forced_sizes(self):
        for seed in range(10):
            g, _ = cd.gen_class_G(12, seed, max_leaf=2)
            assert cd.is_cycle_number_unique(g)

    def test_determinism(self):
        a, sa = cd.gen_class_G(30, 5)
        b, sb = cd.gen_class_G(30, 5)
        assert a == b and sa == sb
        c, _ = cd.gen_class_G(30, 6)
        assert a != c


class TestRegularFamily:
    @given(st.integers(min_value=2, max_value=40), seeds)
    def test_membership(self, n, seed):
        g = cd.gen_class_H(n, seed)
        assert g.n == n
        assert cd.is_class_H(g)

    def test_determinism(self):
        assert cd.gen_class_H(20, 3) == cd.gen_class_H(20, 3)


class TestBoundedDegreeFamily:
    @given(st.integers(min_value=1, max_value=40), seeds)
    def test_membership(self, n, seed):
        g = cd.gen_class_H_prime(n, seed)
        assert g.n == n
        assert cd.is_class_H_prime(g)

    def test_single_vertex(self):
        g = cd.gen_class_H_prime(1, 9)
        assert (g.n, g.m) == (1, 0)

    def test_deterministic(self):
        assert cd.gen_class_H_prime(25, 4) == cd.gen_class_H_prime(25, 4)


class TestFrozenOutput:
    """Digests of generator output over a fixed (n, seed) grid. They pin
    every generated graph and script bit for bit across refactors of the
    operator core the generators build on."""

    NS = (2, 3, 4, 5, 7, 10, 16, 33, 64, 200)
    SEEDS = (0, 1, 2, 5, 17, 2024)

    def digest(self, texts) -> str:
        h = hashlib.sha256()
        for text in texts:
            h.update(text.encode())
            h.update(b"==\n")
        return h.hexdigest()

    def test_class_G(self):
        def texts():
            for n in self.NS:
                for seed in self.SEEDS:
                    for leaf in (1, 3):
                        g, script = cd.gen_class_G(n, seed, max_leaf=leaf)
                        yield cd.write_graph(g) + "--\n" + cd.script_to_text(script)
        assert self.digest(texts()) == "c2a75e95b593fe3813ffb2335da74856c4b4dfac57347e3ef5854eac2e47fb85"

    def test_class_H(self):
        texts = (cd.write_graph(cd.gen_class_H(n, seed)) for n in self.NS for seed in self.SEEDS)
        assert self.digest(texts) == "6b3a80ef5ab422086b70f3d00ec33a93614811831c942075072bd70c2319b453"

    def test_class_H_instructions_replay(self, monkeypatch):
        # class H emits no script, but the instructions its plan sends to the
        # stack step, E joins included, go through replay_script's checks
        emitted = []
        grow = generators._grow

        def recording(*args):
            raw, script = grow(*args)
            emitted.append(tuple(script))
            return raw, script

        monkeypatch.setattr(generators, "_grow", recording)
        joins = 0
        for n in self.NS:
            for seed in self.SEEDS:
                g = cd.gen_class_H(n, seed)
                script = emitted.pop()
                joins += sum(instr[0] == "E" for instr in script)
                assert cd.replay_script(script) == g
        assert joins > 0

    def test_class_H_prime(self):
        texts = (cd.write_graph(cd.gen_class_H_prime(n, seed)) for n in self.NS for seed in self.SEEDS)
        assert self.digest(texts) == "a29b9196ce96554fd77e71e0e62943bdef645281050d8f3faf7370a664135151"


class TestRandomEulerian:
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=4), seeds)
    def test_always_eulerian(self, n, extra, seed):
        g = cd.gen_random_eulerian(n, extra, seed)
        assert g.n == n
        assert cd.is_eulerian(g)

    def test_zero_extra_is_one_cycle(self):
        g = cd.gen_random_eulerian(8, 0, 4)
        assert g.m == 8
        assert all(cd.degree(g, v) == 2 for v in range(8))

    def test_single_vertex(self):
        g = cd.gen_random_eulerian(1, 0, 0)
        assert (g.n, g.m) == (1, 0)


class TestScripts:
    def test_text_round_trip(self):
        _, script = cd.gen_class_G(17, 3)
        text = cd.script_to_text(script)
        assert cd.parse_script(text) == script

    def test_parse_reports_line(self):
        with pytest.raises(cd.InvalidParamError) as exc:
            cd.parse_script("M 2\nQ 1\n")
        assert "2" in str(exc.value)
        with pytest.raises(cd.InvalidParamError):
            cd.parse_script("M 2 3\n")

    def test_replay_catches_stack_underflow(self):
        with pytest.raises(cd.InvalidParamError):
            cd.replay_script((("M", 1), ("V", 0, 0)))

    def test_replay_catches_leftovers(self):
        with pytest.raises(cd.InvalidParamError):
            cd.replay_script((("M", 1), ("M", 1)))

    def test_manual_program(self):
        script = cd.parse_script("M 2\nM 2\nE 0 0 0 0\n")
        g = cd.replay_script(script)
        assert (g.n, g.m) == (4, 8)
        assert cd.is_class_H(g)


@st.composite
def well_formed_scripts(draw, max_extra=8):
    """Scripts that use all seven instructions, with anchors drawn against
    the graphs the public operators build along the way."""
    script: list[tuple] = []
    stack: list[cd.MultiGraph] = []
    leaves = {"M": cd.gen_eulerian_multiedge, "N": cd.gen_closed_necklace, "C": cd.gen_cycle}

    def leaf(op):
        k = draw(st.integers(1 if op == "M" else 2, 4))
        script.append((op, k))
        stack.append(leaves[op](k))

    def anchor(g):
        e = draw(st.integers(0, g.m - 1))
        return e, draw(st.sampled_from(g.endpoints(e)))

    def binary(op):
        while len(stack) < 2:
            leaf(draw(st.sampled_from("MNC")))
        g2 = stack.pop()
        g1 = stack.pop()
        if op == "V":
            u1, u2 = draw(st.integers(0, g1.n - 1)), draw(st.integers(0, g2.n - 1))
            script.append(("V", u1, u2))
            stack.append(cd.vertex_identification(g1, u1, g2, u2)[0])
            return
        (e1, u1), (e2, u2) = anchor(g1), anchor(g2)
        script.append((op, e1, u1, e2, u2))
        apply = cd.edge_identification if op == "E" else cd.vertex_edge_identification
        stack.append(apply(g1, e1, u1, g2, e2, u2)[0])

    ops = list(draw(st.permutations("MNCDVEX")))
    ops += draw(st.lists(st.sampled_from("MNCDVEX"), max_size=max_extra))
    for op in ops:
        if op in leaves:
            leaf(op)
        elif op == "D":
            if not stack:
                leaf(draw(st.sampled_from("MNC")))
            e = draw(st.integers(0, stack[-1].m - 1))
            script.append(("D", e))
            stack.append(cd.subdivide_edge(stack.pop(), e))
        else:
            binary(op)
    while len(stack) > 1:
        binary(draw(st.sampled_from("VEX")))
    return tuple(script)


# malformed scripts and the error the public operators raise on them
MALFORMED = [
    pytest.param([("M", 0)], cd.InvalidParamError, "k=0, need at least one edge pair", id="k-M"),
    pytest.param([("M", -2)], cd.InvalidParamError, "k=-2, need at least one edge pair", id="k-M-negative"),
    pytest.param([("N", 1)], cd.InvalidParamError, "k=1, a closed necklace needs at least two vertices", id="k-N"),
    pytest.param([("C", 1)], cd.InvalidParamError, "k=1, a cycle needs at least two vertices", id="k-C"),
    pytest.param([("C", 3), ("D", 3)], cd.InvalidParamError, "e=3 out of range for m=3", id="e-D"),
    pytest.param([("C", 3), ("D", -1)], cd.InvalidParamError, "e=-1 out of range for m=3", id="e-D-negative"),
    pytest.param([("M", 1), ("M", 1), ("E", 2, 0, 0, 0)], cd.InvalidParamError, "e1=2 out of range for m=2",
                 id="e1-E"),
    pytest.param([("M", 1), ("C", 3), ("X", 0, 0, 3, 0)], cd.InvalidParamError, "e2=3 out of range for m=3",
                 id="e2-X"),
    pytest.param([("M", 1), ("C", 3), ("V", 2, 0)], cd.InvalidVertexError, "u1=2 out of range for n=2", id="u1-V"),
    pytest.param([("M", 1), ("C", 3), ("V", 0, 3)], cd.InvalidVertexError, "u2=3 out of range for n=3", id="u2-V"),
    pytest.param([("C", 3), ("C", 3), ("E", 0, 2, 0, 0)], cd.NotAnEndpointError,
                 "u1=2 is not an endpoint of edge 0", id="anchor-u1-E"),
    pytest.param([("C", 3), ("C", 3), ("X", 0, 0, 0, 2)], cd.NotAnEndpointError,
                 "u2=2 is not an endpoint of edge 0", id="anchor-u2-X"),
    pytest.param([("M", 1), ("V", 0, 0)], cd.InvalidParamError, "script pops from an empty stack", id="underflow-V"),
    pytest.param([("D", 0)], cd.InvalidParamError, "script pops from an empty stack", id="underflow-D"),
    pytest.param([("E", 0, 0, 0, 0)], cd.InvalidParamError, "script pops from an empty stack", id="underflow-E"),
    pytest.param([("M", 1), ("X", 0, 0, 0, 0)], cd.InvalidParamError, "script pops from an empty stack",
                 id="underflow-X"),
    pytest.param([("M", 1), ("M", 1)], cd.InvalidParamError, "script leaves 2 graphs on the stack", id="leftovers"),
    pytest.param([], cd.InvalidParamError, "script leaves 0 graphs on the stack", id="empty"),
    pytest.param([("M", 1), ("Q", 1)], cd.InvalidParamError, "unknown instruction 'Q'", id="unknown"),
]


class TestReplayFastPath:
    """replay_script runs the stack machine on the operators' in-place core;
    operator_replay, one public operator call per instruction, is its
    reference."""

    @pytest.mark.parametrize("n, seed_list", [(2, (0, 1)), (3, (0, 1)), (10, (0, 11)), (200, (0, 11)),
                                              (2000, (11,)), (16000, (11,))])
    def test_class_G_scripts_match_the_reference(self, n, seed_list):
        for seed in seed_list:
            for leaf in (1, 3):
                g, script = cd.gen_class_G(n, seed, max_leaf=leaf)
                fast = cd.replay_script(script)
                assert fast == operator_replay(script) == g

    @given(well_formed_scripts())
    def test_drawn_scripts_match_the_reference(self, script):
        assert cd.replay_script(script) == operator_replay(script)

    @pytest.mark.parametrize("script, error, message", MALFORMED)
    def test_malformed_scripts_fail_as_the_reference(self, script, error, message):
        with pytest.raises(cd.GraphError) as ref:
            operator_replay(script)
        with pytest.raises(cd.GraphError) as fast:
            cd.replay_script(tuple(script))
        for exc in (ref, fast):
            assert type(exc.value) is error and str(exc.value) == message

    def test_builds_one_graph(self, monkeypatch):
        _, script = cd.gen_class_G(501, 3)
        script += (("D", 0),)
        assert len(script) == 1000
        built = []
        init = cd.MultiGraph.__init__

        def counting_init(self, n, edges):
            built.append(n)
            init(self, n, edges)

        monkeypatch.setattr(cd.MultiGraph, "__init__", counting_init)
        g = cd.replay_script(script)
        assert len(built) == 1
        built.clear()
        assert operator_replay(script) == g
        assert len(built) >= len(script)

    def test_oversized_leaves_are_refused(self):
        budget = cd.multigraph.MAX_VERTICES
        for leaf, k in (("M", budget // 2 + 1), ("N", budget // 2 + 1), ("C", budget + 1)):
            with pytest.raises(cd.TooLargeError, match=f"instruction 2: .*over the budget {budget}"):
                cd.replay_script((("C", 3), (leaf, k)))

    def test_generators_refuse_oversized_requests(self, monkeypatch):
        # each family is checked against the most vertices and edges it can
        # produce, before anything is allocated
        budget = cd.multigraph.MAX_VERTICES
        with pytest.raises(cd.TooLargeError, match=f"2 vertices and 200000000000 edges, over the budget {budget}"):
            cd.gen_eulerian_multiedge(10**11)
        monkeypatch.setattr(cd.generators, "MAX_VERTICES", 100)
        fits = [
            lambda: cd.gen_eulerian_multiedge(50),
            lambda: cd.gen_cycle(100),
            lambda: cd.gen_closed_necklace(50),
            lambda: cd.gen_class_G(17, 1),
            lambda: cd.gen_class_G(51, 1, max_leaf=1),
            lambda: cd.gen_class_H(50, 1),
            lambda: cd.gen_class_H_prime(50, 1),
            lambda: cd.gen_random_eulerian(10, 15, 1),
        ]
        for make in fits:
            g = make()
            g = g[0] if isinstance(g, tuple) else g
            assert g.n <= 100 and g.m <= 100
        over = [
            (lambda: cd.gen_eulerian_multiedge(51), "would hold 2 vertices and 102 edges"),
            (lambda: cd.gen_cycle(101), "would hold 101 vertices and 101 edges"),
            (lambda: cd.gen_closed_necklace(51), "would hold 51 vertices and 102 edges"),
            (lambda: cd.gen_class_G(18, 1), "could hold 18 vertices and 102 edges"),
            (lambda: cd.gen_class_G(52, 1, max_leaf=1), "could hold 52 vertices and 102 edges"),
            (lambda: cd.gen_class_H(51, 1), "would hold 51 vertices and 102 edges"),
            (lambda: cd.gen_class_H_prime(51, 1), "could hold 51 vertices and 102 edges"),
            (lambda: cd.gen_random_eulerian(10, 16, 1), "could hold 10 vertices and 106 edges"),
            (lambda: cd.gen_random_eulerian(101, 0, 1), "could hold 101 vertices and 101 edges"),
        ]
        for make, message in over:
            with pytest.raises(cd.TooLargeError, match=f"^the graph {message}, over the budget 100$"):
                make()

    def test_budget_counts_the_whole_stack(self, monkeypatch):
        monkeypatch.setattr(cd.generators, "MAX_VERTICES", 100)
        # X merges a vertex and drops an edge, so D fits exactly
        g = cd.replay_script((("C", 50), ("C", 50), ("X", 0, 0, 0, 0), ("D", 0)))
        assert (g.n, g.m) == (100, 100)
        over = [
            ([("C", 50), ("C", 51)], "instruction 2: the stack would hold 101 vertices and 101 edges"),
            ([("M", 50), ("M", 1)], "instruction 2: the stack would hold 4 vertices and 102 edges"),
            ([("C", 50), ("C", 50), ("V", 0, 0), ("D", 0)],
             "instruction 4: the stack would hold 100 vertices and 101 edges"),
            ([("C", 50), ("C", 50), ("E", 0, 0, 0, 0), ("D", 0)],
             "instruction 4: the stack would hold 101 vertices and 101 edges"),
        ]
        for script, message in over:
            with pytest.raises(cd.TooLargeError, match=message):
                cd.replay_script(tuple(script))
