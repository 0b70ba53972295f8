#!/usr/bin/env python3
"""Time-to-answer benchmark for the cycledec CLI.

    python3 perfbench/run.py --workload verdict-hard --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One process, one thread, one caller: each operation starts when the previous
one has returned (a closed loop with one client). Set-up writes the
workload's graph and script files under .perfbench/ in the checkout and
computes every reference answer before anything is timed. A pass runs each
instance's operations (instances.Instance.ops): `check`, `decompose`,
`numbers` and `oracle` through cycledec.cli.main, and `rebuild`
(parse_script + replay_script). Passes repeat until --seconds have gone by.
Every time is scaled to a reference host speed (speed.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass,
then traced passes, and prints the per-layer metrics. The last line of
standard output is the JSON result. `--workload all` runs every workload in
its own process and prints one row per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
# set-up repeats until it has run at least SETUP_MIN_REPEATS times and for
# at least SETUP_MIN_SECONDS (at most SETUP_MAX_REPEATS times); the first,
# cold set-up is left out of the median
SETUP_MIN_REPEATS = 4
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPEATS = 25
# after an operation this long, probe the host speed several times, so that
# its scaling rests on more than one probe on each side
LONG_OP_S = 0.1

if not (ROOT / "src" / "cycledec" / "__init__.py").is_file():
    print(f"error: cycledec sources not found under {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import cycledec as cd  # noqa: E402
from cycledec import cli  # noqa: E402

import instances  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "check_edges_per_s": "edges/s",
    "decompose_edges_per_s": "edges/s",
    "numbers_ok_per_s": "1/s",
    "numbers_p50_ms": "ms",
    "oracle_ok_per_s": "1/s",
    "rebuild_edges_per_s": "edges/s",
    "ops_ok_share": "share",
    "peak_rss_mb": "MB",
}

OK, WRONG, OVER_BUDGET, FAILED = "ok", "wrong", "over-budget", "failed"


def machine() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


# ---------------------------------------------------------------------------
# Set-up

def set_up(workload: str, seed: int, work: Path) -> list[instances.Instance]:
    insts = instances.WORKLOADS[workload](seed)
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    for i, inst in enumerate(insts):
        inst.path = str(work / f"{i:04d}-{inst.name}.graph")
        Path(inst.path).write_text(inst.text, encoding="utf-8")
        if inst.script is not None:
            inst.script_path = str(work / f"{i:04d}-{inst.name}.script")
            Path(inst.script_path).write_text(inst.script, encoding="utf-8")
    return insts


# ---------------------------------------------------------------------------
# Operations. Each returns (status, seconds); only the program's work is timed.

def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def op_check(inst):
    t0 = time.perf_counter()
    code, out = _cli(["check", inst.path])
    dt = time.perf_counter() - t0
    expect = "UNIQUE" if inst.unique else "NOT-UNIQUE"
    return (OK if (code, out.strip()) == (0 if inst.unique else 1, expect) else _status(code)), dt


def op_decompose(inst):
    captured = []
    inner = cli.ve_components

    def capture(g, order_seed=None):
        final, trace = inner(g, order_seed=order_seed)
        captured.append((g, trace))
        return final, trace

    t0 = time.perf_counter()
    cli.ve_components = capture
    try:
        code, out = _cli(["decompose", inst.path])
    finally:
        cli.ve_components = inner
    replayed = [cd.replay_trace(trace) for _, trace in captured]
    dt = time.perf_counter() - t0
    last = out.rstrip("\n").rsplit("\n", 1)[-1]
    good = (
        code == (0 if inst.unique else 1)
        and last == "VERDICT " + ("unique" if inst.unique else "nonunique")
        and len(captured) == out.count("\nBLOCK ")
        and all(r == g for r, (g, _) in zip(replayed, captured))
    )
    return (OK if good else _status(code)), dt


def op_numbers(inst):
    t0 = time.perf_counter()
    code, out = _cli(["numbers", inst.path])
    dt = time.perf_counter() - t0
    if code == 3:
        return OVER_BUDGET, dt
    if code != 0:
        return _status(code), dt
    c, nu = _read_numbers(out)
    if inst.numbers is not None:
        good = (c, nu) == inst.numbers
    else:
        # only the verdict is certified: the answer must agree with it
        good = c <= nu and (c == nu) == inst.unique
    return (OK if good else WRONG), dt


def op_oracle(inst):
    t0 = time.perf_counter()
    code, out = _cli(["oracle", inst.path])
    pair = cd.has_triple_intersecting_cycle_pair(inst.graph)
    dt = time.perf_counter() - t0
    if code != 0:
        return _status(code), dt
    c, nu = _read_numbers(out)
    body = out.split("MIN\n", 1)[1]
    min_part, max_part = body.split("MAX\n", 1)
    good = (
        (c, nu) == inst.numbers
        and (c == nu) == inst.unique == (pair is None)
        and _partitions(min_part, c, inst.m)
        and _partitions(max_part, nu, inst.m)
    )
    return (OK if good else WRONG), dt


def op_rebuild(inst):
    t0 = time.perf_counter()
    script = cd.parse_script(Path(inst.script_path).read_text(encoding="utf-8"))
    g = cd.replay_script(script)
    dt = time.perf_counter() - t0
    return (OK if g.n == inst.n and list(g.edges()) == inst.edges else WRONG), dt


def _status(code: int) -> str:
    return OVER_BUDGET if code == 3 else FAILED if code == 2 else WRONG


def _read_numbers(out: str) -> tuple[int, int]:
    lines = out.split("\n")
    return int(lines[0].removeprefix("c ")), int(lines[1].removeprefix("nu "))


def _partitions(listing: str, count: int, m: int) -> bool:
    """The listed cycles number `count` and use every edge id once."""
    cycles = [line.split()[1:] for line in listing.split("\n") if line.startswith("C ")]
    used = sorted(int(e) for cyc in cycles for e in cyc)
    return len(cycles) == count and used == list(range(m))


OPS = {"check": op_check, "decompose": op_decompose, "numbers": op_numbers,
       "oracle": op_oracle, "rebuild": op_rebuild}


# ---------------------------------------------------------------------------
# Measurement

class Op:
    """One timed operation; `seconds` is scaled to the reference speed."""

    __slots__ = ("kind", "inst", "status", "start", "wall", "seconds", "pass_no")

    def __init__(self, kind, inst, status, start, wall, pass_no) -> None:
        self.kind, self.inst, self.status = kind, inst, status
        self.start, self.wall, self.seconds, self.pass_no = start, wall, wall, pass_no


def run_pass(insts, log: list[Op], pass_no: int, clock: speed.SpeedLog, tracer=None) -> None:
    gc.collect()
    for inst in insts:
        for kind in inst.ops:
            clock.maybe_probe()
            if tracer is not None:
                tracer.begin_op(len(log), kind)
            start = time.perf_counter()
            try:
                status, dt = OPS[kind](inst)
            except Exception:  # a crash inside the program is a failed operation
                print(f"error: {kind} {inst.name}:", file=sys.stderr)
                traceback.print_exc()
                status, dt = FAILED, time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.end_op()
            log.append(Op(kind, inst, status, start, dt, pass_no))
            if dt >= LONG_OP_S:
                clock.probe(5)


def scale(log: list[Op], clock: speed.SpeedLog) -> float:
    """Scale every operation to the reference speed; returns the scaled total."""
    clock.probe(4)
    for op in log:
        op.seconds = clock.scaled(op.start, op.wall)
    return sum(op.seconds for op in log)


def end_to_end(log: list[Op], setup_times: list[float]) -> tuple[dict, dict]:
    def ops(kind):
        return [op for op in log if op.kind == kind]

    def edges_per_s(kind, only_ok=False):
        rs = ops(kind)
        return sum(op.inst.m for op in rs if op.status == OK or not only_ok) / sum(op.seconds for op in rs)

    def ok_per_s(kind):
        rs = ops(kind)
        return sum(1 for op in rs if op.status == OK) / sum(op.seconds for op in rs)

    latencies = [op.seconds * 1000.0 for op in ops("numbers")]
    cuts = statistics.quantiles(latencies, n=100)
    values = {
        "setup_s": statistics.median(setup_times),
        "check_edges_per_s": edges_per_s("check"),
        "decompose_edges_per_s": edges_per_s("decompose"),
        "numbers_ok_per_s": ok_per_s("numbers"),
        "numbers_p50_ms": cuts[49],
        "oracle_ok_per_s": ok_per_s("oracle"),
        "rebuild_edges_per_s": edges_per_s("rebuild", only_ok=True),
        "ops_ok_share": sum(1 for op in log if op.status == OK) / len(log),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "numbers_samples": len(latencies),
        "numbers_p90_ms": cuts[89],
        "numbers_p99_ms": cuts[98],
        "numbers_beyond_p99": sum(1 for x in latencies if x > cuts[98]),
        "setup_samples": len(setup_times),
        "host_speed": sum(op.wall for op in log) / sum(op.seconds for op in log),
    }
    return values, extra


def run_workload(args) -> int:
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    clock = speed.SpeedLog()
    log: list[Op] = []
    try:
        if tracer is not None:
            tracer.install()
        setup_wall: list[tuple[float, float]] = []
        while len(setup_wall) < SETUP_MIN_REPEATS or (
                sum(dt for _, dt in setup_wall) < SETUP_MIN_SECONDS and len(setup_wall) < SETUP_MAX_REPEATS):
            if tracer is not None:
                tracer.op = -1 - len(setup_wall)
            clock.probe(4)
            t0 = time.perf_counter()
            insts = set_up(args.workload, args.seed, work)
            setup_wall.append((t0, time.perf_counter() - t0))
        clock.probe(4)
        setup_times = [clock.scaled(t0, dt) for t0, dt in setup_wall[1:]]
        if tracer is not None:
            tracer.uninstall()

        start = time.perf_counter()
        if tracer is not None:
            untraced: list[Op] = []
            run_pass(insts, untraced, -1, clock)
            untraced_pass_s = scale(untraced, clock)
            tracer.install()
        passes = 0
        while True:
            run_pass(insts, log, passes, clock, tracer)
            passes += 1
            if time.perf_counter() - start >= args.seconds:
                break
        if tracer is not None:
            tracer.uninstall()
        traced_pass_s = scale(log, clock) / passes
    finally:
        shutil.rmtree(work, ignore_errors=True)

    statuses = [op.status for op in log]
    wrong = statuses.count(WRONG)
    failed = statuses.count(FAILED)
    for op in log:
        if op.status == WRONG:
            print(f"wrong answer: {op.kind} {op.inst.name}", file=sys.stderr)
    summary = {
        "workload": args.workload, "seed": args.seed, "passes": passes, "instances": len(insts),
        "operations": len(statuses), "wrong": wrong, "failed": failed,
        "over_budget": statuses.count(OVER_BUDGET), "machine": machine(),
    }
    if tracer is None:
        values, extra = end_to_end(log, setup_times)
        summary.update(extra)
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    else:
        ops = [(op.kind, op.inst, op.pass_no) for op in log]
        values, table, slopes = spans.per_layer(tracer, ops, len(setup_wall), passes,
                                                untraced_pass_s, traced_pass_s)
        summary["slopes"] = slopes
        out = write_trace(args, tracer, ops, table, values, slopes, summary)
        print_self_times(table)
        print(f"spans written to {out.relative_to(ROOT)}")
        metrics = {k: {"value": values[k], "unit": spans.PER_LAYER_UNITS[k][0]} for k in spans.PER_LAYER_UNITS}
    print("SUMMARY " + json.dumps(summary))
    print(json.dumps({"correct": wrong == 0 and failed == 0, "attempted": len(statuses),
                      "failed": failed, "metrics": metrics}))
    return 0 if wrong == 0 and failed == 0 else 1


def write_trace(args, tracer, ops, table, values, slopes, summary) -> Path:
    out_dir = WORK / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.json"
    by_layer: dict[str, float] = {}
    for name, row in table.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + row["self_s"]
    doc = {
        "summary": summary,
        "per_layer": values,
        "slopes": slopes,
        "self_time_by_layer_s": by_layer,
        "self_time_by_function": table,
        "ops": [[kind, inst.name, pass_no] for kind, inst, pass_no in ops],
        "span_fields": ["id", "parent", "op", "name", "start", "end", "error"],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def print_self_times(table: dict) -> None:
    print(f"{'span':48} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:48} {row['calls']:>9} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")


# ---------------------------------------------------------------------------
# All workloads, one row each

def run_all(args) -> int:
    rows = []
    code = 0
    for workload in instances.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().split("\n")
        if proc.returncode != 0 or len(lines) < 2:
            print(proc.stderr, file=sys.stderr)
            code = 1
            continue
        summary = json.loads(lines[-2].removeprefix("SUMMARY "))
        result = json.loads(lines[-1])
        rows.append((workload, summary, result))
    if not rows:
        return 1
    facts = rows[0][1]["machine"]
    print(f"python {facts['python']}, nproc {facts['nproc']}, seed {args.seed}, {args.seconds} s per workload")
    names = list(END_TO_END)
    header = ["workload", "passes", "ops", "over-budget"] + [f"{n} [{END_TO_END[n]}]" for n in names] \
        + ["numbers_p90_ms [ms] (not gated)", "numbers_p99_ms [ms] (not gated)"]
    print("\t".join(header))
    for workload, summary, result in rows:
        cells = [workload, str(summary["passes"]), str(result["attempted"]), str(summary["over_budget"])]
        for n in names:
            cell = f"{result['metrics'][n]['value']:.6g}"
            if n == "numbers_p50_ms":
                cell += f" (n={summary['numbers_samples']})"
            elif n == "setup_s":
                cell += f" (median of {summary['setup_samples']})"
            cells.append(cell)
        cells.append(f"{summary['numbers_p90_ms']:.6g}")
        cells.append(f"{summary['numbers_p99_ms']:.6g} ({summary['numbers_beyond_p99']} beyond)")
        print("\t".join(cells))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*instances.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except instances.SetupError as exc:
        print(f"error: reference check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
