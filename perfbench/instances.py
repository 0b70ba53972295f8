"""Benchmark inputs and their reference answers.

Every instance is built here, from a seed, before anything is timed. The
reference answer of an instance never comes from the code path a timed
operation exercises:

* Script-built instances (cycle, closed necklace, class G, class H and the
  class H'-style graphs) are evaluated by this module's own stack machine,
  which mirrors the identification operators' id conventions, and their
  (c, nu) follows from the operator arithmetic: ``M k`` -> (k, k),
  ``N k`` -> (2, k), ``C k`` -> (1, 1), ``V`` adds, ``E``/``X`` add and
  subtract one, ``D`` keeps. The verdict is c == nu.
* Large random Eulerian graphs are certified NOT-UNIQUE by treewidth > 2
  (a unique graph has treewidth at most 2); their (c, nu) is unknown.
* Small graphs without a script take (c, nu) from the exhaustive oracle,
  and the verdict c == nu must agree with the cycle-pair scan, or set-up
  fails.
* Every oracle-size instance that is unique must have treewidth at most 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import cycledec as cd

ORACLE_EDGE_LIMIT = cd.DEFAULT_EDGE_LIMIT


class SetupError(Exception):
    """The reference checks disagree with each other or with a generator."""


# ---------------------------------------------------------------------------
# Construction scripts: an independent evaluator and the (c, nu) arithmetic.

def leaf_graph(op: str, k: int) -> list:
    """[n, edges] of a script leaf, with the generators' edge order."""
    if op == "M":
        return [2, [(0, 1)] * (2 * k)]
    if op == "C":
        return [k, [(i, (i + 1) % k) for i in range(k)]]
    if op == "N":
        edges = []
        for i in range(k):
            edges.append((i, (i + 1) % k))
            edges.append((i, (i + 1) % k))
        return [k, edges]
    raise ValueError(f"not a leaf instruction: {op}")


def _far(edges: list, e: int, u: int) -> int:
    a, b = edges[e]
    if u not in (a, b):
        raise ValueError(f"{u} is not an endpoint of edge {e}")
    return b if u == a else a


def apply(stack: list, instr: tuple) -> None:
    """Execute one script instruction on a stack of [n, edges] graphs."""
    op = instr[0]
    if op in ("M", "N", "C"):
        stack.append(leaf_graph(op, instr[1]))
        return
    if op == "D":
        g = stack[-1]
        u, v = g[1][instr[1]]
        w = g[0]
        g[1][instr[1]] = (u, w)
        g[1].append((w, v))
        g[0] = w + 1
        return
    g2 = stack.pop()
    g1 = stack[-1]
    n1, e1s = g1
    if op == "V":
        u1, u2 = instr[1], instr[2]
        e1s.extend((_remap(a, u2, u1, n1), _remap(b, u2, u1, n1)) for a, b in g2[1])
        g1[0] = n1 + g2[0] - 1
        return
    _, e1, u1, e2, u2 = instr
    v1 = _far(e1s, e1, u1)
    v2 = _far(g2[1], e2, u2)
    del e1s[e1]
    rest = [xy for i, xy in enumerate(g2[1]) if i != e2]
    if op == "E":
        e1s.extend((n1 + a, n1 + b) for a, b in rest)
        e1s.append((u1, n1 + u2))
        e1s.append((v1, n1 + v2))
        g1[0] = n1 + g2[0]
    elif op == "X":
        e1s.extend((_remap(a, v2, v1, n1), _remap(b, v2, v1, n1)) for a, b in rest)
        e1s.append((u1, _remap(u2, v2, v1, n1)))
        g1[0] = n1 + g2[0] - 1
    else:
        raise ValueError(f"unknown instruction {op}")


def _remap(w: int, glued: int, onto: int, n1: int) -> int:
    """Vertex w of the second operand after gluing its vertex `glued` onto `onto`."""
    if w == glued:
        return onto
    return n1 + (w if w < glued else w - 1)


def evaluate(script: tuple) -> tuple[int, list]:
    stack: list = []
    for instr in script:
        apply(stack, instr)
    if len(stack) != 1:
        raise ValueError(f"script leaves {len(stack)} graphs on the stack")
    return stack[0][0], stack[0][1]


def script_numbers(script: tuple) -> tuple[int, int]:
    """(c, nu) of a script's graph by the operator arithmetic."""
    stack: list[tuple[int, int]] = []
    for instr in script:
        op = instr[0]
        if op == "M":
            stack.append((instr[1], instr[1]))
        elif op == "N":
            stack.append((2, instr[1]))
        elif op == "C":
            stack.append((1, 1))
        elif op == "D":
            pass
        else:
            c2, n2 = stack.pop()
            c1, n1 = stack.pop()
            drop = 0 if op == "V" else 1
            stack.append((c1 + c2 - drop, n1 + n2 - drop))
    (c, nu), = stack
    return c, nu


def script_text(script: tuple) -> str:
    return "".join(" ".join(str(x) for x in instr) + "\n" for instr in script)


def graph_text(n: int, edges: list) -> str:
    return f"p {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


# ---------------------------------------------------------------------------
# Script generators. Each builds its script while evaluating it, because the
# anchors of a join are drawn from the operands as they are at that point.

class _Emitter:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.script: list[tuple] = []
        self.stack: list = []

    def emit(self, *instr) -> None:
        self.script.append(instr)
        apply(self.stack, instr)

    def random_anchor(self, g: list) -> tuple[int, int]:
        e = self.rng.randrange(len(g[1]))
        return e, g[1][e][self.rng.randrange(2)]

    def join_edges(self, op: str) -> None:
        e1, u1 = self.random_anchor(self.stack[-2])
        e2, u2 = self.random_anchor(self.stack[-1])
        self.emit(op, e1, u1, e2, u2)

    def degree_two_vertex(self) -> int:
        """A random degree-2 vertex of the top graph, subdividing if none."""
        g = self.stack[-1]
        deg = [0] * g[0]
        for a, b in g[1]:
            deg[a] += 1
            deg[b] += 1
        low = [v for v in range(g[0]) if deg[v] == 2]
        if not low:
            self.emit("D", self.rng.randrange(len(g[1])))
            return g[0] - 1
        return low[self.rng.randrange(len(low))]


def class_h_script(n: int, rng: random.Random) -> tuple:
    """Closed necklaces glued by edge identification: 4-regular, treewidth 2."""
    em = _Emitter(rng)

    def build(tn: int) -> None:
        if tn <= 3 or rng.randrange(4) == 0:
            em.emit("N", tn)
            return
        n1 = 2 + rng.randrange(tn - 3)
        build(n1)
        build(tn - n1)
        em.join_edges("E")

    build(n)
    return tuple(em.script)


def _h_prime_piece(em: _Emitter, rng: random.Random) -> None:
    """One small block: a cycle or a necklace, sometimes edge-identified
    with a cycle, then subdivided zero to two times."""
    def leaf() -> None:
        if rng.randrange(3) == 0:
            em.emit("N", 2 + rng.randrange(3))
        else:
            em.emit("C", 2 + rng.randrange(5))

    leaf()
    if rng.randrange(3) == 0:
        em.emit("C", 2 + rng.randrange(5))
        em.join_edges("E")
    for _ in range(rng.randrange(3)):
        em.emit("D", rng.randrange(len(em.stack[-1][1])))


def class_h_prime_script(n: int, rng: random.Random) -> tuple:
    """Class H'-style graph: small blocks glued at degree-2 vertices.

    Maximum degree 4 and treewidth 2 hold by construction; every block has
    at most 18 edges, so every final component stays within the oracle's
    edge budget.
    """
    em = _Emitter(rng)

    def build(pieces: int) -> None:
        if pieces == 1:
            _h_prime_piece(em, rng)
            return
        left = 1 + rng.randrange(pieces - 1)
        build(left)
        u1 = em.degree_two_vertex()
        build(pieces - left)
        u2 = em.degree_two_vertex()
        em.emit("V", u1, u2)

    # a piece adds about 5.2 vertices net of the one each join merges
    build(max(1, round(n / 5.2)))
    return tuple(em.script)


# ---------------------------------------------------------------------------
# Instances and workloads.

@dataclass(eq=False)
class Instance:
    name: str
    family: str
    n: int
    m: int
    text: str
    script: Optional[str]
    numbers: Optional[tuple[int, int]]
    unique: bool
    edges: Optional[list] = None
    graph: Optional[cd.MultiGraph] = None  # kept for oracle-size instances
    ops: tuple[str, ...] = field(init=False)
    path: str = ""
    script_path: str = ""

    def __post_init__(self) -> None:
        # every operation the instance is in the domain of: oracle only
        # within its edge budget, rebuild only with a construction script
        self.ops = ("check", "decompose", "numbers") + ("oracle",) * self.oracle_size \
            + ("rebuild",) * (self.script is not None)

    @property
    def oracle_size(self) -> bool:
        return self.m <= ORACLE_EDGE_LIMIT


def from_script(name: str, family: str, script: tuple, expect=None) -> Instance:
    n, edges = evaluate(script)
    if expect is not None and (expect.n != n or list(expect.edges()) != edges):
        raise SetupError(f"{name}: generator graph differs from its script's graph")
    c, nu = script_numbers(script)
    inst = Instance(name, family, n, len(edges), graph_text(n, edges), script_text(script),
                    (c, nu), c == nu, edges)
    if inst.oracle_size:
        inst.graph = cd.MultiGraph(n, edges)
        checked_by_treewidth(inst, inst.graph)
    return inst


def certified_nonunique(name: str, family: str, g: cd.MultiGraph) -> Instance:
    if cd.is_treewidth_at_most_2(g):
        raise SetupError(f"{name}: treewidth <= 2, cannot certify NOT-UNIQUE")
    return Instance(name, family, g.n, g.m, cd.write_graph(g), None, None, False)


def from_oracle(name: str, family: str, g: cd.MultiGraph) -> Instance:
    res = cd.oracle_cycle_numbers(g)
    unique = res.c_min == res.nu_max
    if unique != (cd.has_triple_intersecting_cycle_pair(g) is None):
        raise SetupError(f"{name}: oracle and cycle-pair scan disagree")
    return checked_by_treewidth(Instance(name, family, g.n, g.m, cd.write_graph(g), None,
                                         (res.c_min, res.nu_max), unique, graph=g), g)


def checked_by_treewidth(inst: Instance, g: cd.MultiGraph) -> Instance:
    if inst.unique and not cd.is_treewidth_at_most_2(g):
        raise SetupError(f"{inst.name}: unique but treewidth > 2")
    return inst


def with_random_cycle(g: cd.MultiGraph, rng: random.Random) -> cd.MultiGraph:
    """g plus one short cycle through distinct random vertices."""
    length = 2 + rng.randrange(min(g.n, 4) - 1) if g.n > 2 else 2
    cyc = rng.sample(range(g.n), length)
    return cd.MultiGraph(g.n, list(g.edges()) + [(cyc[j], cyc[(j + 1) % length]) for j in range(length)])


def _small_family_slice(families: list[str], count: int, rng: random.Random) -> list[Instance]:
    """count oracle-size instances, cycling through the named families and,
    within a family, through a fixed size schedule."""
    out = []
    for i in range(count):
        fam = families[i % len(families)]
        k = i // len(families)
        name = f"{fam}-small-{i}"
        if fam == "cycle":
            out.append(from_script(name, fam, (("C", 3 + k % 22),)))
        elif fam == "necklace":
            out.append(from_script(name, fam, (("N", 2 + k % 11),)))
        elif fam == "classH":
            out.append(from_script(name, fam, class_h_script(2 + k % 11, rng)))
        elif fam == "classHprime":
            out.append(from_script(name, fam, class_h_prime_script(3 + k % 8, rng)))
        elif fam == "classG":
            out.append(_class_g(name, 2 + k % 9, rng.getrandbits(32), 2))
        elif fam == "randomEulerian":
            while True:
                g = cd.gen_random_eulerian(3 + k % 8, (k // 8) % 3, rng.getrandbits(32))
                if g.m <= ORACLE_EDGE_LIMIT:
                    break
            out.append(from_oracle(name, fam, g))
        else:
            raise ValueError(fam)
    return out


def _class_g(name: str, n: int, seed: int, max_leaf: int) -> Instance:
    g, script = cd.gen_class_G(n, seed, max_leaf=max_leaf)
    return from_script(name, "classG", script, expect=g)


SMALL_SLICE = 300


def verdict_hard(seed: int) -> list[Instance]:
    """One large block per instance: the worklist probes do the work.

    The large instances run check and decompose only; the oracle-size slice
    of the same families runs every operation.
    """
    rng = random.Random(f"verdict-hard:{seed}")
    large = []
    for n in (500, 1000):
        large.append(from_script(f"cycle-{n}", "cycle", (("C", n),)))
        large.append(from_script(f"necklace-{n}", "necklace", (("N", n),)))
        large.append(from_script(f"classH-{n}", "classH", class_h_script(n, rng)))
        g = cd.gen_random_eulerian(n, n // 4, rng.getrandbits(32))
        large.append(certified_nonunique(f"randomEulerian-{n}", "randomEulerian", g))
    for inst in large:
        inst.ops = ("check", "decompose")
    return large + _small_family_slice(["cycle", "necklace", "classH", "randomEulerian"], SMALL_SLICE, rng)


def blocky_large(seed: int) -> list[Instance]:
    """Thousands of small blocks: parsing, blocks(), trace assembly, replay."""
    rng = random.Random(f"blocky-large:{seed}")
    out = []
    for n in (8000, 16000):
        out.append(_class_g(f"classG-{n}", n, rng.getrandbits(32), 3))
        out.append(from_script(f"classHprime-{n}", "classHprime", class_h_prime_script(n, rng)))
    return out + _small_family_slice(["classG", "classHprime"], SMALL_SLICE, rng)


def numbers_small(seed: int) -> list[Instance]:
    """The acceptance-corpus mix at oracle size, plus three class H graphs at each n = 12..60.

    Sizes follow a fixed schedule so that seeds change structure, not the
    size mix. check, decompose and rebuild run on every fourth instance of
    the mix; numbers and oracle run on all of it.
    """
    rng = random.Random(f"numbers-small:{seed}")
    out = []
    i = 0
    while len(out) < 1000:
        kind, j = i % 3, i // 3
        name = f"mix-{i}"
        i += 1
        if kind == 0:
            inst = _class_g(name, 2 + j % 9, rng.getrandbits(32), 2)
        elif kind == 1:
            g = cd.gen_random_eulerian(3 + j % 8, (j // 8) % 3, rng.getrandbits(32))
            if g.m > ORACLE_EDGE_LIMIT:
                continue
            inst = from_oracle(name, "randomEulerian", g)
        else:
            base, _ = cd.gen_class_G(2 + j % 9, rng.getrandbits(32), max_leaf=2)
            g = with_random_cycle(base, rng)
            if g.m > ORACLE_EDGE_LIMIT:
                continue
            inst = from_oracle(name, "classGplusCycle", g)
        if len(out) % 4:
            inst.ops = tuple(op for op in inst.ops if op in ("numbers", "oracle"))
        out.append(inst)
    for n in range(12, 61):
        for copy in range(3):
            out.append(from_script(f"classH-{n}-{copy}", "classH", class_h_script(n, rng)))
    return out


WORKLOADS = {
    "verdict-hard": verdict_hard,
    "blocky-large": blocky_large,
    "numbers-small": numbers_small,
}
