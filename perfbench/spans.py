"""Spans around the program's public functions, recorded from outside.

Tracer.install() replaces each traced function, in every loaded cycledec
module that holds it, by a wrapper that records a span (name, start, end,
parent span, operation). Calls between the program's modules go through
module globals, so nested layer calls are caught as child spans without
touching the program's source. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import cycledec as cd

# module -> public functions wrapped in a span named "<module>.<function>"
TRACED = {
    "cli": ["main"],
    "multigraph": ["parse_graph"],
    "connectivity": ["blocks", "is_biconnected"],
    "recognition": [
        "is_cycle_number_unique",
        "is_cycle_number_unique_biconnected",
        "cycle_numbers_via_decomposition",
        "ve_components",
        "replay_trace",
    ],
    "oracle": ["oracle_cycle_numbers", "has_triple_intersecting_cycle_pair", "is_treewidth_at_most_2"],
    "operators": ["vertex_identification", "edge_identification", "vertex_edge_identification"],
    "generators": [
        "gen_class_G",
        "gen_random_eulerian",
        "gen_cycle",
        "gen_closed_necklace",
        "gen_eulerian_multiedge",
        "subdivide_edge",
        "parse_script",
        "replay_script",
    ],
}

# Results kept until the operation ends, then reduced to counts.
_KEEP_RESULT = {"recognition.ve_components", "connectivity.blocks", "multigraph.parse_graph"}

ID, PARENT, OP, NAME, START, END, ERROR = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []
        self._kept: list[tuple[int, object]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "cycledec" or name.startswith("cycledec.")]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"cycledec.{mod_name}"]
            for fn_name in funcs:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        keep = name in _KEEP_RESULT
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), open_[-1] if open_ else -1, self.op, name, clock(), 0.0, None]
            spans.append(rec)
            open_.append(rec[ID])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                open_.pop()
            if keep:
                self._kept.append((rec[ID], result))
            return result

        return wrapper

    def begin_op(self, op: int, kind: str) -> int:
        """Open the root span of one timed operation."""
        self.op = op
        rec = [len(self.spans), -1, op, f"op.{kind}", time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        self._open.append(rec[ID])
        return rec[ID]

    def end_op(self) -> None:
        """Close the root span, then reduce the kept results to counts."""
        sid = self._open.pop()
        self.spans[sid][END] = time.perf_counter()
        counts = self.counts[self.op]
        for span_id, result in self._kept:
            name = self.spans[span_id][NAME]
            if name == "recognition.ve_components":
                _, trace = result
                steps = len(trace.steps)
                counts["steps"] += steps
                # FIFO order pops every vertex once, and both sides of each split again
                counts["probes"] += trace.input_n + 2 * steps
                counts["final_components"] += len(trace.components)
                for comp in trace.components:
                    if not cd.is_eulerian_multiedge(comp.graph):
                        counts["nonmultiedge_components"] += 1
                        counts["max_component_m"] = max(counts["max_component_m"], comp.graph.m)
            elif name == "connectivity.blocks":
                sizes = [b.graph.m for b in result.blocks if b.graph.m > 0]
                counts["blocks_found"] += len(sizes)
                counts["largest_block_m"] = max([counts["largest_block_m"], *sizes])
            elif name == "multigraph.parse_graph":
                counts["parsed_edges"] += result.m
        self._kept.clear()
        self.op = -1


def self_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """calls, total and self seconds per span name; self = total - children."""
    child: dict[int, float] = defaultdict(float)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for rec in spans:
        row = table[rec[NAME]]
        dur = rec[END] - rec[START]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child[rec[ID]]
    return dict(table)


def loglog_slope(points: list[tuple[float, float]]) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def per_layer(tracer: Tracer, ops: list[tuple], setups: int, passes: int,
              untraced_pass_s: float, traced_pass_s: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics per pass, the self-time table and per-family slopes.

    ops[i] = (kind, instance, pass) for operation id i >= 0; set-up spans
    carry negative operation ids. Every "_s" metric is the inclusive time of
    the named function per pass of the workload, except generators.gen_s
    (per set-up) and oracle.treewidth_s (per set-up plus per pass, because
    today only set-up certifies references with it).
    """
    spans = tracer.spans
    in_ops = [rec for rec in spans if rec[OP] >= 0]
    in_setup = [rec for rec in spans if rec[OP] < 0]

    def busy(records, *names) -> float:
        return sum(rec[END] - rec[START] for rec in records if rec[NAME] in names)

    def calls(*names) -> int:
        return sum(1 for rec in in_ops if rec[NAME] in names)

    totals: dict[str, float] = defaultdict(float)
    for op_counts in tracer.counts.values():
        for key, value in op_counts.items():
            if key in ("max_component_m", "largest_block_m"):
                totals[key] = max(totals[key], value)
            else:
                totals[key] += value

    table = self_times(in_ops)
    cli_self = table.get("cli.main", {}).get("self_s", 0.0)
    parse_s = busy(in_ops, "multigraph.parse_graph")

    # worklist seconds per decompose of each instance beyond oracle size,
    # for the per-family scaling fit
    worklist: dict[object, float] = defaultdict(float)
    for rec in in_ops:
        kind, inst, _ = ops[rec[OP]]
        if rec[NAME] == "recognition.ve_components" and kind == "decompose" and not inst.oracle_size:
            worklist[inst] += rec[END] - rec[START]
    by_family: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for inst, seconds in worklist.items():
        by_family[inst.family].append((inst.m, seconds / passes))
    slopes = {fam: loglog_slope(pts) for fam, pts in sorted(by_family.items())
              if len({m for m, _ in pts}) >= 2}

    over_budget = sum(
        1 for rec in in_ops
        if rec[NAME] in ("recognition.cycle_numbers_via_decomposition", "oracle.oracle_cycle_numbers")
        and rec[ERROR] in ("ComponentTooLargeError", "TooLargeError")
    )
    p = float(passes)
    metrics = {
        "recognition.ve_components_s": busy(in_ops, "recognition.ve_components") / p,
        "recognition.steps": totals["steps"] / p,
        "recognition.probes": totals["probes"] / p,
        "recognition.probe_hit_ratio": totals["steps"] / totals["probes"] if totals["probes"] else 0.0,
        "recognition.slope.max": max(slopes.values()) if slopes else 0.0,
        "recognition.final_components": totals["final_components"] / p,
        "recognition.nonmultiedge_components": totals["nonmultiedge_components"] / p,
        "recognition.replay_s": busy(in_ops, "recognition.replay_trace") / p,
        "connectivity.blocks_s": busy(in_ops, "connectivity.blocks") / p,
        "connectivity.blocks_found": totals["blocks_found"] / p,
        "connectivity.largest_block_m": totals["largest_block_m"],
        "multigraph.parse_s": parse_s / p,
        "multigraph.parse_edges_per_s": totals["parsed_edges"] / parse_s if parse_s else 0.0,
        "oracle.cycle_numbers_s": busy(in_ops, "oracle.oracle_cycle_numbers") / p,
        "oracle.cycle_numbers_calls": calls("oracle.oracle_cycle_numbers") / p,
        "oracle.over_budget": over_budget / p,
        "oracle.max_component_m": totals["max_component_m"],
        "oracle.pair_scan_s": busy(in_ops, "oracle.has_triple_intersecting_cycle_pair") / p,
        "oracle.treewidth_s": busy(in_setup, "oracle.is_treewidth_at_most_2") / setups
        + busy(in_ops, "oracle.is_treewidth_at_most_2") / p,
        "operators.replay_script_s": busy(in_ops, "generators.replay_script") / p,
        "operators.identifications": calls("operators.vertex_identification", "operators.edge_identification",
                                           "operators.vertex_edge_identification") / p,
        "generators.gen_s": busy(in_setup, "generators.gen_class_G", "generators.gen_random_eulerian") / setups,
        "cli.self_s": cli_self / p,
        "trace.overhead_ratio": traced_pass_s / untraced_pass_s,
    }
    return metrics, table, slopes


PER_LAYER_UNITS = {
    "recognition.ve_components_s": ("s", "lower"),
    "recognition.steps": ("count", "lower"),
    "recognition.probes": ("count", "lower"),
    "recognition.probe_hit_ratio": ("ratio", "higher"),
    "recognition.slope.max": ("1", "lower"),
    "recognition.final_components": ("count", "lower"),
    "recognition.nonmultiedge_components": ("count", "lower"),
    "recognition.replay_s": ("s", "lower"),
    "connectivity.blocks_s": ("s", "lower"),
    "connectivity.blocks_found": ("count", "lower"),
    "connectivity.largest_block_m": ("edges", "lower"),
    "multigraph.parse_s": ("s", "lower"),
    "multigraph.parse_edges_per_s": ("edges/s", "higher"),
    "oracle.cycle_numbers_s": ("s", "lower"),
    "oracle.cycle_numbers_calls": ("count", "lower"),
    "oracle.over_budget": ("count", "lower"),
    "oracle.max_component_m": ("edges", "lower"),
    "oracle.pair_scan_s": ("s", "lower"),
    "oracle.treewidth_s": ("s", "lower"),
    "operators.replay_script_s": ("s", "lower"),
    "operators.identifications": ("count", "lower"),
    "generators.gen_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
