"""End-to-end acceptance checks.

One test per criterion; each prints a single summary line (visible with -s)
and fails loudly otherwise. The shared corpus fixtures are module scoped so
the expensive streams are built once.
"""

import math
import time

import pytest

import cycledec as cd
from cycledec.cli import main
from helpers import (
    brute_tw_le_2,
    canon,
    mixed_small_eulerian,
    mk_k5,
    small_eulerian_corpus,
    worklist_cycle_numbers,
)

CORPUS_SIZE = 5000


@pytest.fixture(scope="module")
def corpus():
    return small_eulerian_corpus(CORPUS_SIZE)


@pytest.fixture(scope="module")
def corpus_facts(corpus):
    # verdict, oracle numbers and pair scan per instance, computed once and
    # reused by the criteria that cross-check them
    facts = []
    for g in corpus:
        verdict = cd.is_cycle_number_unique(g)
        res = cd.oracle_cycle_numbers(g)
        pair = cd.has_triple_intersecting_cycle_pair(g)
        facts.append((g, bool(verdict), res, pair))
    return facts


def test_criterion_1_three_way_agreement(corpus_facts):
    assert len(corpus_facts) >= 5000
    disagreements = 0
    for g, verdict, res, pair in corpus_facts:
        forced = res.c_min == res.nu_max
        clean = pair is None
        if not (verdict == forced == clean):
            disagreements += 1
    assert disagreements == 0
    print(f"criterion 1: PASS ({len(corpus_facts)} instances, 0 disagreements)")


def test_criterion_2_operator_arithmetic():
    pool = []
    index = 0
    while len(pool) < 1000:
        g = mixed_small_eulerian(index)
        index += 1
        if 2 <= g.m <= 10 and g.n <= 9:
            pool.append(g)
    rng = cd.Rng(2024)
    checked = 0
    for i in range(0, 1000, 2):
        g1, g2 = pool[i], pool[i + 1]
        r1 = cd.oracle_cycle_numbers(g1)
        r2 = cd.oracle_cycle_numbers(g2)

        joined, _ = cd.vertex_identification(g1, rng.below(g1.n), g2, rng.below(g2.n))
        rv = cd.oracle_cycle_numbers(joined)
        assert (rv.c_min, rv.nu_max) == (r1.c_min + r2.c_min, r1.nu_max + r2.nu_max)

        e1, e2 = rng.below(g1.m), rng.below(g2.m)
        u1 = g1.endpoints(e1)[rng.below(2)]
        u2 = g2.endpoints(e2)[rng.below(2)]
        joined, _ = cd.edge_identification(g1, e1, u1, g2, e2, u2)
        re_ = cd.oracle_cycle_numbers(joined)
        assert (re_.c_min, re_.nu_max) == (r1.c_min + r2.c_min - 1, r1.nu_max + r2.nu_max - 1)

        joined, _ = cd.vertex_edge_identification(g1, e1, u1, g2, e2, u2)
        rx = cd.oracle_cycle_numbers(joined)
        assert (rx.c_min, rx.nu_max) == (r1.c_min + r2.c_min - 1, r1.nu_max + r2.nu_max - 1)

        # the gap between max and min is additive under all three joins
        spread = (r1.nu_max - r1.c_min) + (r2.nu_max - r2.c_min)
        assert rv.nu_max - rv.c_min == spread
        assert re_.nu_max - re_.c_min == spread
        assert rx.nu_max - rx.c_min == spread
        checked += 1
    assert checked >= 500
    print(f"criterion 2: PASS ({checked} operand pairs, three operators each)")


def test_criterion_3_named_instances():
    g = cd.gen_closed_necklace(3)
    res = cd.oracle_cycle_numbers(g)
    assert (res.c_min, res.nu_max) == (2, 3)
    assert not cd.is_cycle_number_unique(g)

    for k in range(1, 9):
        h = cd.gen_eulerian_multiedge(k)
        rk = cd.oracle_cycle_numbers(h)
        assert (rk.c_min, rk.nu_max) == (k, k)
        assert cd.is_cycle_number_unique(h)

    k5 = mk_k5()
    r5 = cd.oracle_cycle_numbers(k5)
    assert r5.c_min == 2
    assert not cd.is_cycle_number_unique(k5)
    print("criterion 3: PASS (doubled triangle, 8 multiedges, K5)")


def test_criterion_4_trace_replay(corpus):
    instances = 0
    for g in corpus:
        for block in cd.blocks(g).blocks:
            h = block.graph
            if h.m == 0:
                continue
            _, trace = cd.ve_components(h)
            if h.n >= 2:
                assert len(trace.steps) <= h.n - 2
            rebuilt = cd.replay_trace(trace)
            assert canon(rebuilt) == canon(h)
            assert rebuilt == h
        instances += 1
    print(f"criterion 4: PASS ({instances} instances, replay exact, step bound holds)")


def test_criterion_5_treewidth(corpus_facts):
    for g, verdict, _, _ in corpus_facts:
        if verdict:
            assert cd.is_treewidth_at_most_2(g)

    import networkx as nx

    checked = 0
    for atlas in nx.graph_atlas_g():
        if atlas.number_of_nodes() == 0 or not nx.is_connected(atlas):
            continue
        g = cd.MultiGraph(atlas.number_of_nodes(), list(atlas.edges()))
        assert cd.is_treewidth_at_most_2(g) == brute_tw_le_2(g)
        checked += 1
    assert checked == 996
    print(f"criterion 5: PASS (unique implies width <= 2; {checked} atlas graphs agree)")


def test_criterion_6_regular_family():
    trees = 0
    for i in range(200):
        n = 2 + (i * 37) % 39
        g = cd.gen_class_H(n, 60_000 + i)
        assert cd.is_class_H(g)
        tree = cd.decompose_class_H(g)
        stack = [tree]
        while stack:
            node = stack.pop()
            stack.extend(node.parts)
            leaf = cd.is_closed_necklace(node.graph)
            assert (node.cut is None) == leaf
            assert (cd.find_disjoint_two_cut(node.graph) is None) == leaf
        assert all(cd.is_closed_necklace(l.graph) for l in tree.leaves())
        assert cd.verify_necklace_replay(tree)
        trees += 1
    print(f"criterion 6: PASS ({trees} members decomposed to necklaces and replayed)")


def _loglog_slope(sizes, times) -> float:
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum((x - xbar) ** 2 for x in xs)


def test_criterion_7_scaling_and_differential(corpus):
    sizes = (1000, 2000, 4000, 8000, 16000)
    times = []
    for n in sizes:
        g, _ = cd.gen_class_G(n, 1234, max_leaf=3)
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            verdict = cd.is_cycle_number_unique(g)
            best = min(best, time.perf_counter() - t0)
        assert verdict
        times.append(best)
    assert times[-1] < 60.0
    slope = _loglog_slope(sizes, times)
    assert slope <= 2.2

    graphs = list(corpus)
    for i in range(30):
        g, _ = cd.gen_class_G(20 + i * 6, 80_000 + i)
        graphs.append(g)
    pieces = 0
    for g in graphs:
        assert g.n <= 200
        for block in cd.blocks(g).blocks:
            h = block.graph
            if h.n < 2:
                continue
            for v in range(h.n):
                assert cd.fused_bridge_probe(h, v) == cd.find_cut_edge_avoiding(h, v)
            pieces += 1
    print(
        f"criterion 7: PASS (slope={slope:.2f}, t16k={times[-1]:.2f}s, "
        f"fused=naive on {pieces} blocks)"
    )


@pytest.mark.parametrize("family", ["random_eulerian", "class_H"])
def test_criterion_7_worklist_scaling(family):
    # the separation worklist alone, on graphs that are one large block and
    # whose probes mostly find no bridge; walking the component on every
    # probe made it quadratic
    sizes = (1000, 2000, 4000, 8000)
    times = []
    for n in sizes:
        g = cd.gen_random_eulerian(n, n // 4, 31) if family == "random_eulerian" else cd.gen_class_H(n, 31)
        hs = [b.graph for b in cd.blocks(g).blocks if b.graph.m > 0]
        assert max(h.m for h in hs) > n
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for h in hs:
                cd.ve_components(h)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    slope = _loglog_slope(sizes, times)
    assert slope <= 1.6
    print(f"criterion 7, worklist on {family}: PASS (slope={slope:.2f}, t8k={times[-1]:.2f}s)")


def test_criterion_8_order_invariance(corpus, tmp_path_factory, capsys):
    out_dir = tmp_path_factory.mktemp("order")
    instances = corpus[:100]
    checked = 0
    for i, g in enumerate(instances):
        path = out_dir / f"g{i}.graph"
        path.write_text(cd.write_graph(g))
        assert main(["numbers", str(path)]) == 0
        base_numbers = capsys.readouterr().out
        base_verdict = bool(cd.is_cycle_number_unique(g))
        for seed in range(50):
            assert main(["numbers", "--randomized-order", str(seed), str(path)]) == 0
            assert capsys.readouterr().out == base_numbers
            assert bool(cd.is_cycle_number_unique(g, order_seed=seed)) == base_verdict
        code = main(["check", "--randomized-order", "17", str(path)])
        capsys.readouterr()
        assert code == (0 if base_verdict else 1)
        checked += 1
    assert checked == 100
    with capsys.disabled():
        print(f"criterion 8: PASS ({checked} instances x 50 order seeds, all stable)")


def test_criterion_8_worklist_reference(corpus):
    # numbers skips the worklist on blocks of treewidth <= 2, so criterion 8's
    # CLI runs rarely reach it; the worklist route itself must give the same
    # numbers under every order seed on the same graphs
    instances = corpus[:100]
    for g in instances:
        want = cd.cycle_numbers_via_decomposition(g)
        for seed in range(50):
            assert worklist_cycle_numbers(g, order_seed=seed) == want
    print(f"criterion 8, worklist route: PASS ({len(instances)} instances x 50 order seeds)")
