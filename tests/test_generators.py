import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cycledec as cd
from conftest import seeds


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
