"""Checks on the benchmark's own references and derived counters.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

import shutil
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

import cycledec as cd
from cycledec import recognition

import instances
import run
import spans

SEED = 7


@pytest.fixture(scope="module")
def workloads():
    return {name: build(SEED) for name, build in instances.WORKLOADS.items()}


def test_script_arithmetic_matches_oracle(workloads):
    checked = 0
    for insts in workloads.values():
        for inst in insts:
            if inst.script is None or not inst.oracle_size:
                continue
            res = cd.oracle_cycle_numbers(inst.graph)
            assert (res.c_min, res.nu_max) == inst.numbers, inst.name
            checked += 1
    assert checked >= 500


def test_scripts_replay_to_the_evaluated_graph(workloads):
    for insts in workloads.values():
        for inst in insts:
            if inst.script is None:
                continue
            g = cd.replay_script(cd.parse_script(inst.script))
            assert (g.n, list(g.edges())) == (inst.n, inst.edges), inst.name


def test_h_prime_style_stays_in_class_and_budget():
    script = instances.class_h_prime_script(3000, instances.random.Random(1))
    n, edges = instances.evaluate(script)
    g = cd.MultiGraph(n, edges)
    assert cd.is_class_H_prime(g)
    assert max(b.graph.m for b in cd.blocks(g).blocks) <= instances.ORACLE_EDGE_LIMIT


def _fifo_probe_calls(g: cd.MultiGraph) -> tuple[int, int]:
    """Probe calls and steps of the FIFO worklist, replayed one public step at a time."""
    queue = deque(range(g.n))
    calls = steps = 0
    while queue:
        v = queue.popleft()
        calls += 1
        if cd.fused_bridge_probe(g, v) is None:
            continue
        g, (v1, v2) = cd.test_and_decompose(g, v)
        queue.extend((v1, v2))
        steps += 1
    return calls, steps


def _traced(kind, inst):
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0, kind)
        status, _ = run.OPS[kind](inst)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert status == run.OK
    return tracer.counts[0]


def _written(insts, tmp_path: Path):
    for i, inst in enumerate(insts):
        inst.path = str(tmp_path / f"{i}.graph")
        Path(inst.path).write_text(inst.text, encoding="utf-8")
    return insts


def test_counters_match_ground_truth(workloads, tmp_path, monkeypatch):
    # the worklist's own probe calls, counted through its private probe
    worklist_probes = [0]
    probe = recognition._probe

    def counting_probe(work, v):
        worklist_probes[0] += 1
        return probe(work, v)

    small = [i for i in workloads["numbers-small"] if i.m >= 6][:150]
    for inst in _written(small + workloads["verdict-hard"][:4], tmp_path):
        g = cd.parse_graph(inst.text)
        worklist_probes[0] = 0
        with monkeypatch.context() as patch:
            patch.setattr(recognition, "_probe", counting_probe)
            traces = [cd.ve_components(b.graph)[1] for b in cd.blocks(g).blocks if b.graph.m > 0]
        counts = _traced("decompose", inst)
        assert counts["steps"] == sum(len(t.steps) for t in traces), inst.name
        assert counts["final_components"] == sum(len(t.components) for t in traces), inst.name
        assert counts["probes"] == worklist_probes[0], inst.name
        if inst.m > 40:
            continue
        probes = 0
        for b, t in zip((b for b in cd.blocks(g).blocks if b.graph.m > 0), traces):
            calls, steps = _fifo_probe_calls(b.graph)
            assert steps == len(t.steps), inst.name
            assert calls == b.graph.n + 2 * len(t.steps), inst.name
            probes += calls
        assert counts["probes"] == probes, inst.name


def test_every_operation_rejects_a_wrong_reference(workloads, tmp_path):
    inst = next(i for i in workloads["numbers-small"] if i.script is not None and i.m >= 8 and i.unique)
    inst = _written([inst], tmp_path)[0]
    inst.script_path = str(tmp_path / "0.script")
    Path(inst.script_path).write_text(inst.script, encoding="utf-8")
    for kind in inst.ops:
        assert run.OPS[kind](inst)[0] == run.OK, kind
    inst.unique = False
    inst.numbers = (inst.numbers[0], inst.numbers[1] + 1)
    inst.edges = inst.edges[1:] + inst.edges[:1]
    for kind in inst.ops:
        assert run.OPS[kind](inst)[0] == run.WRONG, kind


def test_fails_without_the_program(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verdict-hard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
