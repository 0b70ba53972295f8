"""The series-parallel tables against the paths they replace.

series_parallel_numbers answers every biconnected block of treewidth at
most 2. It is tied here to the exhaustive oracle, to the operator
arithmetic of construction scripts, to the separation worklist, and to the
elimination reference for treewidth, and timed on closed-form shapes whose
tables would grow without the degree cut.
"""

import time

import pytest
from hypothesis import given

import cycledec as cd
from cycledec.cli import main
from conftest import eulerian_graphs
from helpers import elimination_tw_le_2, mk_k5, script_numbers, small_eulerian_corpus, worklist_cycle_numbers


def nonempty_blocks(g):
    return [b.graph for b in cd.blocks(g).blocks if b.graph.m]


def assert_tables_match_oracle(h):
    """Tables refuse exactly the blocks of treewidth > 2 and otherwise give
    the oracle's numbers; stopping at the first split keeps the verdict."""
    numbers = cd.series_parallel_numbers(h)
    assert (numbers is not None) == elimination_tw_le_2(h)
    early = cd.series_parallel_numbers(h, stop_at_split=True)
    early_unique = early is not None and early[0] == early[1]
    if numbers is None:
        assert not early_unique
        return None
    res = cd.oracle_cycle_numbers(h)
    assert numbers == (res.c_min, res.nu_max)
    assert early_unique == (numbers[0] == numbers[1])
    return numbers


def theta(d):
    """d paths of length 2 between vertices 0 and 1."""
    return cd.MultiGraph(2 + d, [e for i in range(d) for e in ((0, 2 + i), (2 + i, 1))])


def gadget_theta(d):
    """d routes 0 = x = 1 through their own x, every edge doubled."""
    return cd.MultiGraph(2 + d, [e for i in range(d) for e in ((0, 2 + i),) * 2 + ((2 + i, 1),) * 2])


def weighted_theta(d):
    """d routes 0 - x - y - 1 with the edge x - y tripled."""
    edges = []
    for i in range(d):
        x, y = 2 + 2 * i, 3 + 2 * i
        edges += [(0, x), (x, y), (x, y), (x, y), (y, 1)]
    return cd.MultiGraph(2 + 2 * d, edges)


class TestAgainstOracle:
    def test_acceptance_corpus(self):
        outcomes = {True: 0, False: 0}
        for g in small_eulerian_corpus(5000):
            for h in nonempty_blocks(g):
                outcomes[assert_tables_match_oracle(h) is not None] += 1
        assert outcomes[True] > 1000 and outcomes[False] > 100

    @given(eulerian_graphs(max_n=9, max_extra=3))
    def test_hypothesis_graphs(self, g):
        for h in nonempty_blocks(g):
            if h.m <= 18:
                assert_tables_match_oracle(h)

    def test_named_instances(self):
        assert cd.series_parallel_numbers(cd.MultiGraph(1, [])) == (0, 0)
        assert cd.series_parallel_numbers(cd.gen_eulerian_multiedge(7)) == (7, 7)
        assert cd.series_parallel_numbers(cd.gen_cycle(9)) == (1, 1)
        assert cd.series_parallel_numbers(cd.gen_closed_necklace(6)) == (2, 6)
        assert cd.series_parallel_numbers(mk_k5()) is None
        # a triangle with one edge in a 2001-bundle: the cut keeps it small
        big = cd.MultiGraph(3, [(0, 1)] * 2001 + [(1, 2), (2, 0)])
        assert cd.series_parallel_numbers(big) == (1001, 1001)


class TestAgainstScripts:
    @pytest.mark.parametrize("n", [2, 3, 5, 12, 40, 150, 1000, 4000, 16000])
    def test_class_G(self, n):
        for seed in range(12 if n <= 150 else 2):
            g, script = cd.gen_class_G(n, 900 + seed)
            blocks = nonempty_blocks(g)
            tables = [cd.series_parallel_numbers(h) for h in blocks]
            assert None not in tables
            want = script_numbers(script)
            assert (sum(c for c, _ in tables), sum(nu for _, nu in tables)) == want
            assert cd.cycle_numbers_via_decomposition(g) == want
            assert bool(cd.is_cycle_number_unique(g)) == (want[0] == want[1])


class TestAgainstWorklist:
    def test_families_up_to_1000(self):
        answered = 0
        for n in (4, 10, 40, 150, 1000):
            for seed in (1, 2):
                for g in (cd.gen_class_H(n, seed), cd.gen_class_H_prime(n, seed),
                          cd.gen_random_eulerian(n, 1 + n // 50, seed)):
                    try:
                        want = worklist_cycle_numbers(g)
                    except cd.ComponentTooLargeError:
                        continue
                    assert cd.cycle_numbers_via_decomposition(g) == want
                    answered += 1
        assert answered >= 15

    def test_refusal_is_treewidth_above_two(self):
        for n in (10, 40, 150, 1000):
            for g in (cd.gen_class_H(n, n), cd.gen_class_H_prime(n, n), cd.gen_random_eulerian(n, n // 8, n),
                      cd.gen_random_eulerian(n, 2, n)):
                for h in nonempty_blocks(g):
                    assert (cd.series_parallel_numbers(h) is None) == (not elimination_tw_le_2(h))


class TestClosedFormShapes:
    @pytest.mark.parametrize("build, d, want", [
        (theta, 4000, (2000, 2000)),
        (gadget_theta, 2000, (2000, 4000)),
        (weighted_theta, 1000, (1500, 1500)),
    ], ids=["theta", "gadget-theta", "weighted-theta"])
    def test_numbers_and_check_time(self, tmp_path, capsys, build, d, want):
        g = build(d)
        assert cd.series_parallel_numbers(g) == want
        path = tmp_path / "g.graph"
        path.write_text(cd.write_graph(g))
        t0 = time.perf_counter()
        code = main(["check", str(path)])
        elapsed = time.perf_counter() - t0
        assert code == (0 if want[0] == want[1] else 1)
        assert capsys.readouterr().out == ("UNIQUE\n" if code == 0 else "NOT-UNIQUE\n")
        assert elapsed < 1.0
