"""Command line front end.

Subcommands: check, decompose, oracle, numbers, generate.

Exit codes: 0 success (and verdict true for check/decompose), 1 verdict
false, 2 bad input, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import GraphError, NotEulerianError, TooLargeError
from .connectivity import BlockForest, blocks
from .generators import (
    gen_class_G,
    gen_class_H,
    gen_class_H_prime,
    gen_closed_necklace,
    gen_cycle,
    gen_eulerian_multiedge,
    gen_random_eulerian,
    script_to_text,
)
from .multigraph import MultiGraph, is_eulerian, is_eulerian_multiedge, parse_graph, write_graph
from .oracle import DEFAULT_EDGE_LIMIT, has_triple_intersecting_cycle_pair, oracle_cycle_numbers
from .recognition import (
    cycle_numbers_via_decomposition,
    is_cycle_number_unique,
    ve_components,
)


def _load(path: str) -> MultiGraph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def cmd_check(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    verdict = is_cycle_number_unique(g, order_seed=args.randomized_order, every_block=args.per_component)
    print("UNIQUE" if verdict.unique else "NOT-UNIQUE")
    if args.per_component:
        for i, (h, unique) in enumerate(verdict.block_verdicts):
            word = "unique" if unique else "nonunique"
            print(f"block {i}: n={h.n} m={h.m} {word}")
    if args.witness and not verdict.unique and verdict.witness is not None:
        print("WITNESS")
        sys.stdout.write(write_graph(verdict.witness))
        if verdict.witness.m <= DEFAULT_EDGE_LIMIT:
            pair = has_triple_intersecting_cycle_pair(verdict.witness)
            if pair is not None:
                print("CYCLE-PAIR")
                for cyc in pair:
                    print("C " + " ".join(str(e) for e in cyc.edge_ids))
    return 0 if verdict.unique else 1


def cmd_decompose(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    if not is_eulerian(g):
        raise NotEulerianError("uniqueness is defined for connected even graphs")
    lines = [f"GRAPH {g.n} {g.m}"]
    forest = blocks(g)
    unique = True
    index = 0
    for block in forest.blocks:
        if block.graph.m == 0:
            continue
        bg = block.graph
        _, trace = ve_components(bg, order_seed=args.randomized_order)
        lines.append(f"BLOCK {index} n={bg.n} m={bg.m}")
        for st in trace.steps:
            lines.append(st.trace_line())
        for j, comp in enumerate(trace.components):
            tag = "yes" if is_eulerian_multiedge(comp.graph) else "no"
            if tag == "no":
                unique = False
            lines.append(f"COMPONENT {j} n={comp.graph.n} m={comp.graph.m} multiedge={tag}")
        index += 1
    lines.append("VERDICT " + ("unique" if unique else "nonunique"))
    _emit(args.trace_out, "".join(line + "\n" for line in lines))
    if args.dot_out is not None:
        Path(args.dot_out).write_text(_block_dot(forest), encoding="utf-8")
    return 0 if unique else 1


def _block_dot(forest: BlockForest) -> str:
    out = ["graph blockstructure {"]
    for i, b in enumerate(forest.blocks):
        out.append(f'  b{i} [shape=box label="block {i}\\nn={b.graph.n} m={b.graph.m}"];')
    for c in sorted(forest.cut_vertices):
        out.append(f'  v{c} [shape=circle label="{c}"];')
    for c in sorted(forest.block_cut_incidence):
        for i in forest.block_cut_incidence[c]:
            out.append(f"  b{i} -- v{c};")
    out.append("}")
    return "".join(line + "\n" for line in out)


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    res = oracle_cycle_numbers(g, edge_limit=args.edge_limit)
    print(f"c {res.c_min}")
    print(f"nu {res.nu_max}")
    print("MIN")
    for cyc in res.min_witness.cycles:
        print("C " + " ".join(str(e) for e in cyc.edge_ids))
    print("MAX")
    for cyc in res.max_witness.cycles:
        print("C " + " ".join(str(e) for e in cyc.edge_ids))
    return 0


def cmd_numbers(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    c, nu = cycle_numbers_via_decomposition(
        g, edge_limit=args.edge_limit, order_seed=args.randomized_order
    )
    print(f"c {c}")
    print(f"nu {nu}")
    return 0


_FAMILIES = {
    "multiedge": (1, lambda p, s: gen_eulerian_multiedge(p[0])),
    "cycle": (1, lambda p, s: gen_cycle(p[0])),
    "necklace": (1, lambda p, s: gen_closed_necklace(p[0])),
    "classG": (1, lambda p, s: gen_class_G(p[0], s)),
    "classH": (1, lambda p, s: gen_class_H(p[0], s)),
    "classHprime": (1, lambda p, s: gen_class_H_prime(p[0], s)),
    "randomEulerian": (2, lambda p, s: gen_random_eulerian(p[0], p[1], s)),
}


def cmd_generate(args: argparse.Namespace) -> int:
    if args.family not in _FAMILIES:
        raise GraphError(f"unknown family {args.family!r}; choose from {sorted(_FAMILIES)}")
    arity, make = _FAMILIES[args.family]
    if len(args.params) != arity:
        raise GraphError(f"family {args.family} takes {arity} parameter(s)")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.txt"
    records = []
    for i in range(args.count):
        seed = args.seed + i
        result = make(args.params, seed)
        script = None
        if isinstance(result, tuple):
            g, script = result
        else:
            g = result
        stem = f"{args.family}-{'x'.join(str(p) for p in args.params)}-s{seed}"
        fname = stem + ".graph"
        (out_dir / fname).write_text(write_graph(g), encoding="utf-8")
        if script is not None:
            (out_dir / (stem + ".script")).write_text(script_to_text(script), encoding="utf-8")
        params = ",".join(str(p) for p in args.params)
        records.append(f"family={args.family} params={params} seed={seed} file={fname}")
    with manifest.open("a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec + "\n")
    for rec in records:
        print(rec)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="cycledec",
        description="Cycle-decomposition numbers of Eulerian multigraphs.",
    )
    sub = root.add_subparsers(dest="command", required=True)

    def graph_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", help="graph file, or - for stdin")

    def order_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--randomized-order", type=int, default=None, metavar="SEED",
                       help="pop worklist vertices in seeded random order")

    p = sub.add_parser("check", help="decide whether the decomposition size is forced")
    graph_arg(p)
    p.add_argument("--per-component", action="store_true", help="also report per-block verdicts")
    p.add_argument("--witness", action="store_true",
                   help="print a non-multiedge final component on a negative verdict")
    order_arg(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("decompose", help="print the separation trace")
    graph_arg(p)
    p.add_argument("--trace-out", default=None, metavar="FILE", help="write the trace here")
    p.add_argument("--dot-out", default=None, metavar="FILE", help="write block structure as dot")
    order_arg(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("oracle", help="exact numbers by exhaustive search")
    graph_arg(p)
    p.add_argument("--edge-limit", type=int, default=DEFAULT_EDGE_LIMIT)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("numbers", help="exact numbers through the decomposition")
    graph_arg(p)
    p.add_argument("--edge-limit", type=int, default=DEFAULT_EDGE_LIMIT)
    order_arg(p)
    p.set_defaults(fn=cmd_numbers)

    p = sub.add_parser("generate", help="write seeded family instances")
    p.add_argument("family", help="|".join(sorted(_FAMILIES)))
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", default=".", metavar="DIR")
    p.set_defaults(fn=cmd_generate)

    return root


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, TooLargeError) else 2


if __name__ == "__main__":
    sys.exit(main())
