import dataclasses
import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cycledec as cd
from cycledec import recognition
from cycledec.cli import main
from cycledec.multigraph import reach
from conftest import built_graphs, connected_multigraphs, eulerian_graphs
from helpers import assert_same_graph, canon, mk_bowtie, mk_k5, reference_extraction


def script_cycle_count(script) -> int:
    # leaves contribute their pair count, each vee keeps the sum,
    # each cross merges one cycle away
    total = 0
    for ins in script:
        if ins[0] == "M":
            total += ins[1]
        elif ins[0] == "X":
            total -= 1
    return total


class TestSingleStep:
    def test_matches_naive_step_exactly(self):
        g = cd.gen_cycle(5)
        sep = cd.find_ve_separator(g)
        assert (sep.vertex, sep.edge) == (0, 1)
        h_naive, rec = cd.ve_separation_step(g, sep)
        h_fast, split = cd.test_and_decompose(g, 0)
        assert h_fast == h_naive
        assert split == (rec.v1, rec.v2)

    def test_irreducible_inputs_pass_through(self):
        for g in (cd.gen_eulerian_multiedge(2), mk_k5(), cd.gen_closed_necklace(3)):
            for v in range(g.n):
                h, split = cd.test_and_decompose(g, v)
                assert split is None
                assert h == g

    def test_antipodal_entry_splits_into_triangles(self):
        # same C5, different split vertex: both halves come out as 3-cycles
        h, pair = cd.test_and_decompose(cd.gen_cycle(5), 3)
        assert pair == (3, 5)
        sizes = sorted(len(c) for c in cd.connected_components(h))
        assert sizes == [3, 3]

    def test_vertex_range_checked(self):
        with pytest.raises(cd.InvalidVertexError):
            cd.test_and_decompose(cd.gen_cycle(4), 7)
        with pytest.raises(cd.InvalidVertexError):
            cd.fused_bridge_probe(cd.gen_cycle(4), -1)

    @pytest.mark.parametrize("labels", [False, True])
    def test_disconnected_input_keeps_the_component_map(self, monkeypatch, labels):
        # a 5-cycle, an isolated vertex and a triangle: the map starts
        # exact, the cost rule reads v's own component, and a split keeps
        # the map exact
        monkeypatch.setattr(recognition, "_labels_pay", lambda rank, edges: labels)
        g = cd.MultiGraph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (6, 7), (7, 8), (8, 6)])
        for v in range(g.n):
            assert cd.fused_bridge_probe(g, v) == cd.find_cut_edge_avoiding(g, v)
            work = recognition._WorkGraph(g)
            _assert_labels_consistent(work)
            probe = recognition._probe(work, v)
            assert (probe is None) == (v == 5)
            if probe is not None:
                recognition._apply(work, v, probe)
            assert (work.label is not None) == (labels and v != 5)
            _assert_labels_consistent(work)

    @given(built_graphs(max_n=9))
    def test_fused_probe_agrees_with_naive(self, g):
        # agreement is only promised where the worklist runs: biconnected
        # pieces, where deleting one vertex cannot disconnect the rest
        for block in cd.blocks(g).blocks:
            h = block.graph
            if h.n < 2:
                continue
            for v in range(h.n):
                assert cd.fused_bridge_probe(h, v) == cd.find_cut_edge_avoiding(h, v)
        sep = None
        for block in cd.blocks(g).blocks:
            h = block.graph
            if h.n < 3 or cd.is_eulerian_multiedge(h):
                continue
            sep = cd.find_ve_separator(h)
            if sep is not None:
                hits = [v for v in range(h.n) if cd.fused_bridge_probe(h, v) is not None]
                assert hits and hits[0] == sep.vertex


class TestProbeAtACutVertex:
    """At a cut vertex v of its component K, a probe answers for all of
    K - v and a step sends every part of K - v but u1's side to v2, as the
    naive route does, whichever way the cost rule answers."""

    @pytest.mark.parametrize("labels", [False, True])
    def test_k4_with_a_hanging_cycle(self, monkeypatch, labels):
        monkeypatch.setattr(recognition, "_labels_pay", lambda rank, edges: labels)
        k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = cd.MultiGraph(7, k4 + [(0, 4), (4, 5), (5, 6), (6, 0)])
        assert cd.fused_bridge_probe(g, 0) == cd.find_cut_edge_avoiding(g, 0) == 7

    @pytest.mark.parametrize("labels", [False, True])
    @given(g=connected_multigraphs())
    def test_probe_and_step_match_the_naive_route(self, labels, g):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recognition, "_labels_pay", lambda rank, edges: labels)
            for v in range(g.n):
                e = cd.find_cut_edge_avoiding(g, v)
                assert cd.fused_bridge_probe(g, v) == e
                h, pair = cd.test_and_decompose(g, v)
                if e is None:
                    assert (h, pair) == (g, None)
                else:
                    ref, step = cd.ve_separation_step(g, cd.VESeparator(v, e))
                    assert h == ref
                    assert pair == (step.v1, step.v2)


class TestApplyMatchesTheStep:
    """_apply is the worklist's in-place form of ve_separation_step. On
    biconnected inputs, where the worklist runs it, both give the same
    graph, whichever way the cost rule answers."""

    @pytest.mark.parametrize("labels", [False, True])
    @given(g=connected_multigraphs())
    def test_dense_edges_and_split_match(self, labels, g):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recognition, "_labels_pay", lambda rank, edges: labels)
            for block in cd.blocks(g).blocks:
                h = block.graph
                for v in range(h.n):
                    work = recognition._WorkGraph(h)
                    probe = recognition._probe(work, v)
                    if probe is None:
                        continue
                    step = recognition._apply(work, v, probe)
                    ref, rec = cd.ve_separation_step(h, cd.VESeparator(v, probe[0]))
                    assert [ep for ep in work.endpoints if ep is not None] == list(ref.edges())
                    assert (step.v1, step.v2) == (rec.v1, rec.v2)


class TestWorklist:
    def test_c5_runs_to_parallel_pairs(self):
        final, trace = cd.ve_components(cd.gen_cycle(5))
        assert len(trace.steps) == 3
        comps = trace.final_components
        assert len(comps) == 4
        assert all(c.n == 2 and c.m == 2 for c in comps)
        assert final.n == 8 and final.m == 8

    def test_c7_takes_five_steps(self):
        final, trace = cd.ve_components(cd.gen_cycle(7))
        assert len(trace.steps) == 5
        assert len(trace.final_components) == 6
        assert all(cd.is_eulerian_multiedge(c) for c in trace.final_components)

    def test_necklace2_is_already_final(self):
        g = cd.gen_eulerian_multiedge(2)
        final, trace = cd.ve_components(g)
        assert trace.steps == ()
        assert final == g
        assert len(trace.final_components) == 1

    def test_necklace3_is_irreducible_but_not_multiedge(self):
        final, trace = cd.ve_components(cd.gen_closed_necklace(3))
        assert trace.steps == ()
        (comp,) = trace.final_components
        assert not cd.is_eulerian_multiedge(comp)

    def test_rejects_cut_vertices(self):
        with pytest.raises(cd.NotBiconnectedError):
            cd.ve_components(mk_bowtie())

    def test_block_graphs_skip_the_biconnectivity_test(self, monkeypatch):
        tested = []
        check = recognition.is_biconnected
        monkeypatch.setattr(recognition, "is_biconnected", lambda g: tested.append(g) or check(g))
        g, _ = cd.gen_class_G(40, 3)
        for block in cd.blocks(g).blocks:
            cd.ve_components(block.graph)
        assert tested == []
        h = cd.gen_cycle(5)
        cd.ve_components(h)
        assert tested == [h]

    def test_step_bound(self):
        for n, seed in ((6, 11), (8, 12), (10, 13), (14, 14)):
            g, _ = cd.gen_class_G(n, seed, max_leaf=2)
            for block in cd.blocks(g).blocks:
                if block.graph.n < 2:
                    continue
                _, trace = cd.ve_components(block.graph)
                assert len(trace.steps) <= block.graph.n - 2

    def test_component_ids_map_back(self):
        g = cd.gen_cycle(5)
        final, trace = cd.ve_components(g)
        # edge_ids refer to worklist slots; final compacts the survivors
        slot_to_final = {slot: j for j, slot in enumerate(trace.final_edge_ids)}
        for comp in trace.components:
            for e_local, (a, b) in enumerate(comp.graph.edges()):
                u, v = final.endpoints(slot_to_final[comp.edge_ids[e_local]])
                assert {comp.vertex_ids[a], comp.vertex_ids[b]} == {u, v}

    def test_final_components_admit_no_separator(self):
        # postcondition: the worklist only stops when nothing splits anymore,
        # confirmed here by exhaustive scan over every vertex of every part
        for i in range(12):
            g, _ = cd.gen_class_G(12, 300 + i, max_leaf=2)
            for block in cd.blocks(g).blocks:
                if block.graph.n < 2:
                    continue
                _, trace = cd.ve_components(block.graph)
                for comp in trace.components:
                    assert cd.find_ve_separator(comp.graph) is None
                    for v in range(comp.graph.n):
                        assert cd.find_cut_edge_avoiding(comp.graph, v) is None

    def test_same_input_same_trace(self):
        graphs = [cd.gen_cycle(9), cd.gen_class_G(16, 44)[0]]
        for g in graphs:
            for block in cd.blocks(g).blocks:
                if block.graph.n < 2:
                    continue
                f1, t1 = cd.ve_components(block.graph)
                f2, t2 = cd.ve_components(block.graph)
                assert f1 == f2
                assert t1 == t2


def _live_graph(work):
    """The working graph's alive edges as a MultiGraph, with their ids."""
    alive = [e for e, ends in enumerate(work.endpoints) if ends is not None]
    return alive, cd.MultiGraph(len(work.adj), [work.endpoints[e] for e in alive])


def _walk_probe(work, v):
    """Reference probe by the naive route: find_cut_edge_avoiding on v's
    component of the live working graph, with reach for the sides. Returns
    (bridge, vertex set of u2's side, component minus v), in working ids."""
    alive, live = _live_graph(work)
    marks = reach(live, v)
    k, vids, eids = cd.induced_subgraph(live, (x for x in range(live.n) if marks[x]))
    local_v = vids.index(v)
    e_local = cd.find_cut_edge_avoiding(k, local_v)
    if e_local is None:
        return None
    u2 = k.endpoints(e_local)[1]
    side = reach(k, u2, skip_vertex=local_v, skip_edges=(e_local,))
    rest = set(vids) - {v}
    return alive[eids[e_local]], {vids[x] for x in range(k.n) if side[x]}, rest


def _assert_labels_consistent(work):
    """The component map and the split invariant: comp names exactly the
    connected components and size counts their edges; once labels exist,
    those at every vertex XOR to 0 and each component's buckets list
    exactly its edges."""
    alive, live = _live_graph(work)
    assert len(work.comp) == live.n
    parts = cd.connected_components(live)
    assert sorted({work.comp[x] for part in parts for x in part}) == list(range(len(work.size)))
    for part in parts:
        assert {work.comp[x] for x in part} == {work.comp[part[0]]}
    by_comp = {}
    for e in alive:
        a, b = work.endpoints[e]
        assert work.comp[a] == work.comp[b]
        by_comp.setdefault(work.comp[a], []).append(e)
    for c, size in enumerate(work.size):
        assert size == len(by_comp.get(c, []))
    if work.label is None:
        assert work.buckets is None
        return
    for x, adjx in enumerate(work.adj):
        acc = 0
        for e in adjx:
            acc ^= work.label[e]
        assert acc == 0
    for c, buckets in enumerate(work.buckets):
        if buckets is not None:
            want = {}
            for e in by_comp.get(c, []):
                want.setdefault(work.label[e], []).append(e)
            assert buckets == want


def _check_label_probes(h, order_seed=None, build_after=0):
    """Run the worklist on h, with the cost rule refusing the block labels
    until build_after steps are done and then with the labels built; at
    every pop, the probe must name the same bridge and the same sides as
    the naive route, and the component map must stay exact."""
    work = recognition._WorkGraph(h)
    work.final = False
    _assert_labels_consistent(work)
    pool = list(range(h.n))
    rng = random.Random(order_seed)
    steps = 0
    while pool:
        v = pool.pop(0) if order_seed is None else pool.pop(rng.randrange(len(pool)))
        if work.label is None and steps >= build_after:
            recognition._build_labels(work)
            _assert_labels_consistent(work)
        ref = _walk_probe(work, v)
        if work.label is None:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(recognition, "_labels_pay", lambda rank, edges: False)
                probe = recognition._probe(work, v)
        else:
            adjv = work.adj[v]
            away = work.size[work.comp[v]] - len(adjv)
            e = recognition._label_candidate(work, v, adjv, away) if adjv and away else -1
            assert e == (-1 if ref is None else ref[0])
            probe = recognition._probe(work, v)
        if ref is None:
            assert probe is None
            continue
        e, side, side_is_u2 = probe
        assert e == ref[0]
        assert (side if side_is_u2 else ref[2] - side) == ref[1]
        assert len(side) <= len(ref[2]) - len(side) + 1
        step = recognition._apply(work, v, probe)
        steps += 1
        pool += [step.v1, step.v2]
        _assert_labels_consistent(work)
    return steps


def _family_blocks(ns, seeds):
    for n in ns:
        graphs = [cd.gen_cycle(n), cd.gen_closed_necklace(n)]
        for seed in seeds:
            graphs += [cd.gen_class_G(n, seed)[0], cd.gen_class_H(n, seed),
                       cd.gen_class_H_prime(n, seed), cd.gen_random_eulerian(n, n // 4, seed)]
        for g in graphs:
            for block in cd.blocks(g).blocks:
                if block.graph.n > 2:
                    yield block.graph


class TestLabelProbe:
    """The probe against the naive route, with the cost rule switched off so
    that the block labels answer every probe once they are built, and the
    tree-label fallback every probe before."""

    @pytest.fixture(autouse=True)
    def labels_everywhere(self, monkeypatch):
        monkeypatch.setattr(recognition, "_labels_pay", lambda rank, edges: True)

    @given(eulerian_graphs(max_n=14, max_extra=5), st.integers(0, 3))
    def test_random_eulerian(self, g, build_after):
        for block in cd.blocks(g).blocks:
            if block.graph.n > 2:
                _check_label_probes(block.graph, None, build_after)
                _check_label_probes(block.graph, 7, build_after)

    @given(built_graphs(max_n=14), st.integers(0, 3))
    def test_built_graphs(self, g, build_after):
        for block in cd.blocks(g).blocks:
            if block.graph.n > 2:
                _check_label_probes(block.graph, None, build_after)

    def test_every_family_up_to_128(self):
        steps = 0
        for h in _family_blocks((3, 4, 5, 7, 10, 16, 33, 64, 128), (0, 1)):
            for order_seed, build_after in ((None, 0), (5, 0), (None, 2)):
                steps += _check_label_probes(h, order_seed, build_after)
        assert steps > 1000

    def test_single_step_entry_agrees_with_the_naive_scan(self):
        for h in _family_blocks((5, 16, 64), (2,)):
            for v in range(h.n):
                assert cd.fused_bridge_probe(h, v) == cd.find_cut_edge_avoiding(h, v)


class TestFrozenTraces:
    """Digests of `decompose` output for every generator family over a fixed
    (n, seed) grid, in FIFO order and under three order seeds. They pin every
    step id of the worklist, for each way it picks vertices, across
    refactors of its loop."""

    NS = (2, 3, 4, 5, 7, 10, 16, 33, 64, 128)
    SEEDS = (0, 1, 2, 5)
    DIGESTS = {
        None: "3bd19b320dd56a2ca0265cf4a9efc4115f5430d3a70ad2c0f1f590effbbe5505",
        0: "5470d0033dfbbdb5be9d414c60385cd9c7a378eb142c039bea46b2b918a956e3",
        5: "f2ace7f486ea0325759bebec2ef4c6649dfa3afb4b2851607760cc67be19efe7",
        17: "8220a236b3dae8da2d455bfeea73e7547478d8ebb33b5ef324ed5a5d9150ede6",
    }

    def graphs(self):
        for n in self.NS:
            yield cd.gen_eulerian_multiedge(n)
            yield cd.gen_cycle(n)
            yield cd.gen_closed_necklace(n)
            for seed in self.SEEDS:
                yield cd.gen_class_G(n, seed)[0]
                yield cd.gen_class_H(n, seed)
                yield cd.gen_class_H_prime(n, seed)
                yield cd.gen_random_eulerian(n, n // 4, seed)

    @pytest.mark.parametrize("order", list(DIGESTS))
    def test_decompose_text(self, tmp_path, order):
        assert self.digest(tmp_path, order) == self.DIGESTS[order]

    @pytest.mark.parametrize("order", [None, 5])
    def test_constant_labels_keep_the_traces(self, tmp_path, monkeypatch, order):
        # every edge label alike: candidates are mostly no bridge at all, so
        # hits fall back to the tree labels, and the ids must not move
        refuted = []
        confirm = recognition._smaller_side

        def counting_confirm(*args):
            found = confirm(*args)
            refuted.append(found is None)
            return found

        monkeypatch.setattr(recognition, "_edge_label", lambda e: 1)
        monkeypatch.setattr(recognition, "_smaller_side", counting_confirm)
        assert self.digest(tmp_path, order) == self.DIGESTS[order]
        assert sum(refuted) > len(refuted) // 2

    @pytest.mark.parametrize("order", [None, 5])
    def test_label_path_everywhere_keeps_the_traces(self, tmp_path, monkeypatch, order):
        # with the cost rule always admitting the labels, every block builds
        # them on its first probe, tiny ones included
        built = []
        build = recognition._build_labels

        def counting_build(work):
            built.append(len(work.endpoints))
            return build(work)

        monkeypatch.setattr(recognition, "_labels_pay", lambda rank, edges: True)
        monkeypatch.setattr(recognition, "_build_labels", counting_build)
        assert self.digest(tmp_path, order) == self.DIGESTS[order]
        assert min(built) <= 3

    def counting_confirms(self, monkeypatch):
        refuted = []
        confirm = recognition._smaller_side

        def counting_confirm(*args):
            found = confirm(*args)
            refuted.append(found is None)
            return found

        monkeypatch.setattr(recognition, "_smaller_side", counting_confirm)
        return refuted

    def never_build(self, monkeypatch):
        def no_build(work):
            raise AssertionError("the cost rule admitted the block labels")

        monkeypatch.setattr(recognition, "_labels_pay", lambda rank, edges: False)
        monkeypatch.setattr(recognition, "_build_labels", no_build)

    @pytest.mark.parametrize("order", [None, 5])
    def test_fallback_everywhere_keeps_the_traces(self, tmp_path, monkeypatch, order):
        # with the cost rule never admitting the block labels, the tree
        # labels of the component minus v answer every probe
        self.never_build(monkeypatch)
        confirms = self.counting_confirms(monkeypatch)
        assert self.digest(tmp_path, order) == self.DIGESTS[order]
        assert confirms

    @pytest.mark.parametrize("order", [None, 5])
    def test_fallback_with_constant_labels_keeps_the_traces(self, tmp_path, monkeypatch, order):
        # every label 0: each edge of the component minus v is a candidate,
        # so the walks refute all but the answer, and the ids must not move
        self.never_build(monkeypatch)
        refuted = self.counting_confirms(monkeypatch)
        monkeypatch.setattr(recognition, "_edge_label", lambda e: 0)
        assert self.digest(tmp_path, order) == self.DIGESTS[order]
        assert refuted.count(True) > 10 * refuted.count(False) > 0

    def digest(self, tmp_path, order) -> str:
        graph_path = tmp_path / "g.graph"
        trace_path = tmp_path / "g.trace"
        order_args = [] if order is None else ["--randomized-order", str(order)]
        h = hashlib.sha256()
        for g in self.graphs():
            graph_path.write_text(cd.write_graph(g))
            code = main(["decompose", "--trace-out", str(trace_path), *order_args, str(graph_path)])
            h.update(f"{code}\n".encode())
            h.update(trace_path.read_bytes())
            for block in cd.blocks(g).blocks:
                if block.graph.m == 0:
                    continue
                final, trace = cd.ve_components(block.graph, order_seed=order)
                # every final component is block i of the final graph, in working-space ids
                assert trace.components == tuple(
                    cd.Block(b.graph, b.vertex_ids, tuple(trace.final_edge_ids[e] for e in b.edge_ids))
                    for b in cd.blocks(final).blocks
                )
        return h.hexdigest()


class TestCheckedGraphs:
    """parse_graph, blocks() and ve_components build their graphs without
    the constructor's checks; over TestFrozenTraces' grid, each equals the
    checked graph, and every trace equals the one that the reference
    extraction reads off the same working graph."""

    def test_graphs_and_traces_match_the_checked_route(self, monkeypatch):
        made = []

        class Recorded(recognition._WorkGraph):
            __slots__ = ()

            def __init__(self, g, connected=False):
                super().__init__(g, connected)
                made.append(self)

        monkeypatch.setattr(recognition, "_WorkGraph", Recorded)
        step_free = 0
        for g in TestFrozenTraces().graphs():
            parsed = cd.parse_graph(cd.write_graph(g))
            assert_same_graph(parsed)
            for block in cd.blocks(parsed).blocks:
                h = block.graph
                assert_same_graph(h)
                if h.m == 0:
                    continue
                for order in (None, 5):
                    final, trace = cd.ve_components(h, order_seed=order)
                    ref_final, ref_components, alive = reference_extraction(made[-1])
                    assert final == ref_final
                    assert trace.components == ref_components
                    assert trace.final_edge_ids == alive
                    assert_same_graph(final)
                    for comp in trace.components:
                        assert_same_graph(comp.graph)
                    if not trace.steps:
                        step_free += 1
                        assert final is h is trace.components[0].graph
        assert step_free > 100


class TestReplay:
    @given(built_graphs(max_n=10))
    def test_replay_restores_input_exactly(self, g):
        for block in cd.blocks(g).blocks:
            h = block.graph
            if h.n < 2 or not cd.is_biconnected(h):
                continue
            final, trace = cd.ve_components(h)
            assert cd.replay_trace(trace) == h

    def test_zero_step_traces_match_the_union_find_replay(self):
        zero_step = 0
        for n in (2, 5, 16, 60, 400, 2000):
            for seed in (0, 7):
                graphs = (cd.gen_class_G(n, seed)[0], cd.gen_class_G(n, seed, max_leaf=1)[0],
                          cd.gen_class_H_prime(n, seed))
                for g in graphs:
                    for block in cd.blocks(g).blocks:
                        if block.graph.m == 0:
                            continue
                        _, trace = cd.ve_components(block.graph)
                        if trace.steps:
                            continue
                        zero_step += 1
                        assert cd.replay_trace(trace) is trace.components[0].graph
                        assert recognition._undo_steps(trace) == block.graph == cd.replay_trace(trace)
        assert zero_step > 1000

    def test_replay_with_randomized_order(self):
        g = cd.gen_cycle(9)
        for seed in range(6):
            final, trace = cd.ve_components(g, order_seed=seed)
            assert cd.replay_trace(trace) == g

    def test_replay_rejects_tampered_trace(self):
        _, trace = cd.ve_components(cd.gen_cycle(5))
        bad_step = cd.VeStep(
            vertex=trace.steps[0].vertex,
            edge=trace.steps[0].edge,
            u1=trace.steps[0].u1,
            u2=trace.steps[0].u2,
            v1=trace.steps[0].v1,
            v2=trace.steps[0].v2 + 3,
            f1=trace.steps[0].f1,
            f2=trace.steps[0].f2,
        )
        tampered = cd.DecompositionTrace(
            input_n=trace.input_n,
            input_m=trace.input_m,
            steps=(bad_step,) + trace.steps[1:],
            components=trace.components,
            final_edge_ids=trace.final_edge_ids,
        )
        with pytest.raises(cd.GraphError):
            cd.replay_trace(tampered)

    @pytest.mark.parametrize("field", ["vertex", "edge", "u1", "u2", "v1", "v2", "f1", "f2"])
    def test_replay_rejects_any_tampered_field(self, field):
        for g in (cd.gen_cycle(9), cd.gen_class_H(14, 3), cd.gen_random_eulerian(14, 3, 4)):
            h = max(cd.blocks(g).blocks, key=lambda b: b.graph.m).graph
            _, trace = cd.ve_components(h)
            assert trace.steps
            for k, step in enumerate(trace.steps):
                for delta in (-2, -1, 1, 3):
                    steps = list(trace.steps)
                    steps[k] = dataclasses.replace(step, **{field: getattr(step, field) + delta})
                    with pytest.raises(cd.GraphError):
                        cd.replay_trace(dataclasses.replace(trace, steps=tuple(steps)))


    @pytest.mark.parametrize("tamper", ["vertex_out_of_range", "endpoints_equal", "edge_dropped", "edge_repeated"])
    def test_replay_rejects_tampered_components(self, tamper):
        graphs = (cd.gen_cycle(9), cd.gen_class_H(14, 3), cd.gen_random_eulerian(14, 3, 4), cd.gen_closed_necklace(4))
        for g in graphs:
            h = max(cd.blocks(g).blocks, key=lambda b: b.graph.m).graph
            _, trace = cd.ve_components(h)
            beyond = trace.input_n + len(trace.steps)
            for k, comp in enumerate(trace.components):
                vids, eids = list(comp.vertex_ids), list(comp.edge_ids)
                for i, (a, b) in enumerate(comp.graph.edges()):
                    if tamper == "vertex_out_of_range":
                        bad = dataclasses.replace(comp, vertex_ids=tuple(vids[:a] + [beyond] + vids[a + 1:]))
                    elif tamper == "endpoints_equal":
                        bad = dataclasses.replace(comp, vertex_ids=tuple(vids[:b] + [vids[a]] + vids[b + 1:]))
                    elif tamper == "edge_dropped":
                        bad = dataclasses.replace(comp, edge_ids=tuple(eids[:i] + eids[i + 1:]))
                    else:
                        bad = dataclasses.replace(comp, edge_ids=tuple(eids[:i] + [eids[i - 1]] + eids[i + 1:]))
                    components = trace.components[:k] + (bad,) + trace.components[k + 1:]
                    with pytest.raises(cd.GraphError):
                        cd.replay_trace(dataclasses.replace(trace, components=components))


class TestVerdicts:
    def test_named_instances(self):
        assert cd.is_cycle_number_unique(cd.gen_eulerian_multiedge(2))
        assert cd.is_cycle_number_unique(mk_bowtie())
        assert cd.is_cycle_number_unique(cd.MultiGraph(1, []))
        assert not cd.is_cycle_number_unique(cd.gen_closed_necklace(3))
        assert not cd.is_cycle_number_unique(mk_k5())

    def test_bad_lobe_poisons_the_graph(self):
        # bowtie with a third lobe that is a necklace-3: one block fails
        g, _ = cd.vertex_identification(mk_bowtie(), 0, cd.gen_closed_necklace(3), 0)
        verdict = cd.is_cycle_number_unique(g)
        assert not verdict
        assert verdict.witness is not None
        assert canon(verdict.witness) == canon(cd.gen_closed_necklace(3))

    def test_witness_is_none_on_success(self):
        verdict = cd.is_cycle_number_unique(cd.gen_cycle(6))
        assert verdict
        assert verdict.witness is None

    def test_rejects_disconnected_and_odd(self):
        with pytest.raises(cd.NotEulerianError):
            cd.is_cycle_number_unique(cd.MultiGraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)]))
        with pytest.raises(cd.NotEulerianError):
            cd.is_cycle_number_unique(cd.MultiGraph(2, [(0, 1)]))
        with pytest.raises(cd.OddDegreeError):
            cd.is_cycle_number_unique_biconnected(cd.MultiGraph(2, [(0, 1)]))

    @given(eulerian_graphs(max_n=9, max_extra=2))
    def test_verdict_matches_oracle(self, g):
        if g.m > 14:
            return
        res = cd.oracle_cycle_numbers(g)
        assert bool(cd.is_cycle_number_unique(g)) == (res.c_min == res.nu_max)


class TestNumbersViaDecomposition:
    def test_named_instances(self):
        assert cd.cycle_numbers_via_decomposition(mk_bowtie()) == (2, 2)
        assert cd.cycle_numbers_via_decomposition(cd.gen_closed_necklace(3)) == (2, 3)
        assert cd.cycle_numbers_via_decomposition(cd.gen_cycle(7)) == (1, 1)
        assert cd.cycle_numbers_via_decomposition(cd.MultiGraph(1, [])) == (0, 0)

    def test_large_built_graph_matches_script(self):
        g, script = cd.gen_class_G(1000, 99, max_leaf=2)
        expected = script_cycle_count(script)
        assert cd.cycle_numbers_via_decomposition(g) == (expected, expected)

    def test_component_budget(self):
        with pytest.raises(cd.ComponentTooLargeError):
            cd.cycle_numbers_via_decomposition(mk_k5(), edge_limit=5)

    def test_multiedge_components_skip_the_budget(self):
        # a 2k-multiedge block never consults the subset oracle
        g = cd.gen_eulerian_multiedge(40)
        assert cd.cycle_numbers_via_decomposition(g, edge_limit=5) == (40, 40)

    @given(eulerian_graphs(max_n=9, max_extra=2))
    def test_matches_oracle(self, g):
        if g.m > 14:
            return
        res = cd.oracle_cycle_numbers(g)
        assert cd.cycle_numbers_via_decomposition(g) == (res.c_min, res.nu_max)

    def test_order_invariance(self):
        for seed in (5, 17, 23):
            g, _ = cd.gen_class_G(12, seed, max_leaf=2)
            base = cd.cycle_numbers_via_decomposition(g)
            base_verdict = bool(cd.is_cycle_number_unique(g))
            for order_seed in range(10):
                assert cd.cycle_numbers_via_decomposition(g, order_seed=order_seed) == base
                assert bool(cd.is_cycle_number_unique(g, order_seed=order_seed)) == base_verdict
