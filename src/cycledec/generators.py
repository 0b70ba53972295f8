"""Seeded graph family generators and the construction script language.

All randomness flows through Rng, so a (family, params, seed) triple pins
the output bit for bit on every platform.

Construction scripts are little stack programs that rebuild a generated
graph id for id:

    M <k>                    push the Eulerian multiedge with 2k edges
    N <k>                    push the closed necklace on k vertices
    C <k>                    push the cycle on k vertices
    D <e>                    subdivide edge e of the top graph
    V <u1> <u2>              pop g2, pop g1, push vertex identification
    E <e1> <u1> <e2> <u2>    pop g2, pop g1, push edge identification
    X <e1> <u1> <e2> <u2>    pop g2, pop g1, push vertex-edge identification

One stack step, _run, evaluates every instruction on [n, edge list]
pairs with the operators' own edge-list core in place; the generators and
replay_script both go through it and build one MultiGraph at the end,
sidestepping the quadratic cost of rebuilding an immutable graph per
application. gen_class_G and gen_class_H share one plan-then-evaluate
routine, _grow. replay_script runs the public operators' own check
functions before each step, so a bad script fails with the error they
would raise, and a good one yields the graph they would build, id for id.
Every generator and replay_script raise TooLargeError, before allocating,
where the graph could have more than multigraph.MAX_VERTICES vertices or
edges.
"""

from __future__ import annotations

from .errors import InvalidParamError, TooLargeError
from .multigraph import MAX_VERTICES, MultiGraph
from .operators import check_edge, check_join, check_splice, join_vertex, splice
from .rng import Rng

# The families as [n, edge list] pairs, the operand form of the operator core.

def _multiedge(k: int) -> list:
    return [2, [(0, 1)] * (2 * k)]


def _cycle(k: int) -> list:
    return [k, [(i, (i + 1) % k) for i in range(k)]]


def _necklace(k: int) -> list:
    edges = []
    for i in range(k):
        pair = (i, (i + 1) % k)
        edges += (pair, pair)
    return [k, edges]


def _subdivide(g: list, e: int) -> None:
    """Subdivide edge e in place: (u, v) becomes (u, w), and (w, v) is
    appended, with w = n the fresh vertex."""
    u, v = g[1][e]
    w = g[0]
    g[1][e] = (u, w)
    g[1].append((w, v))
    g[0] = w + 1


# script leaf -> (builder, least k, why)
_LEAVES = {
    "M": (_multiedge, 1, "need at least one edge pair"),
    "N": (_necklace, 2, "a closed necklace needs at least two vertices"),
    "C": (_cycle, 2, "a cycle needs at least two vertices"),
}


def _check_leaf(op: str, k: int) -> None:
    _, least, why = _LEAVES[op]
    if k < least:
        raise InvalidParamError(f"k={k}, {why}")


def _check_budget(n: int, m: int, what: str, instruction: int = -1) -> None:
    """Raise TooLargeError when n vertices or m edges would pass
    multigraph.MAX_VERTICES; `what` opens the message, after the script
    instruction's index when one is given."""
    if n > MAX_VERTICES or m > MAX_VERTICES:
        where = "" if instruction < 0 else f"instruction {instruction}: "
        raise TooLargeError(f"{where}{what} {n} vertices and {m} edges, over the budget {MAX_VERTICES}")


def _run(stack: list[list], instr: tuple) -> None:
    """Apply one script instruction to a stack of [n, edge list] pairs,
    without checks: replay_script checks each instruction first, and the
    generators emit valid ones."""
    op = instr[0]
    if op in _LEAVES:
        stack.append(_LEAVES[op][0](instr[1]))
    elif op == "D":
        _subdivide(stack[-1], instr[1])
    else:
        g2 = stack.pop()
        if op == "V":
            join_vertex(stack[-1], instr[1], g2, instr[2])
        else:
            splice(stack[-1], instr[1], instr[2], g2, instr[3], instr[4], merge=op == "X")


def gen_eulerian_multiedge(k: int) -> MultiGraph:
    """Two vertices joined by 2k parallel edges."""
    _check_leaf("M", k)
    _check_budget(2, 2 * k, "the graph would hold")
    return MultiGraph(*_multiedge(k))


def gen_cycle(k: int) -> MultiGraph:
    """The cycle on k vertices; k = 2 is a parallel pair."""
    _check_leaf("C", k)
    _check_budget(k, k, "the graph would hold")
    return MultiGraph(*_cycle(k))


def gen_closed_necklace(k: int) -> MultiGraph:
    """The cycle on k vertices with every edge doubled."""
    _check_leaf("N", k)
    _check_budget(k, 2 * k, "the graph would hold")
    return MultiGraph(*_necklace(k))


def subdivide_edge(g: MultiGraph, e: int) -> MultiGraph:
    """Replace edge e = (u, v) by u - w - v through a fresh vertex w = n.

    The half u-w keeps the id e, the half w-v takes the last id.
    """
    check_edge(g.m, e, "e")
    raw = [g.n, list(g.edges())]
    _subdivide(raw, e)
    return MultiGraph(*raw)


def _grow(target_n: int, rng: Rng, split) -> tuple[list, list[tuple]]:
    """Draw a random binary plan and evaluate it into a graph and its script.

    split(tn) draws the root of a subtree with tn vertices: a leaf
    instruction, or (kind, n1, n2) for a join of kind V, E or X of subtrees
    with n1 and n2 vertices. The whole plan is drawn first, in pre-order;
    then, in post-order, each join draws its anchors on the two graphs it
    pops, and every instruction goes to _run. Returns the [n, edge list]
    pair and the script.
    """
    plan = []
    pending = [target_n]
    while pending:
        node = split(pending.pop())
        plan.append(node)
        if node[0] not in _LEAVES:
            pending += (node[2], node[1])
    script: list[tuple] = []
    stack: list[list] = []
    # joins still short of an operand, with the stack height they found
    opened: list[tuple[str, int]] = []
    for node in plan:
        if node[0] not in _LEAVES:
            opened.append((node[0], len(stack)))
            continue
        script.append(node)
        _run(stack, node)
        while opened and len(stack) == opened[-1][1] + 2:
            kind = opened.pop()[0]
            if kind == "V":
                instr = ("V", rng.below(stack[-2][0]), rng.below(stack[-1][0]))
            else:
                g1, g2 = stack[-2][1], stack[-1][1]
                e1 = rng.below(len(g1))
                u1 = g1[e1][rng.below(2)]
                e2 = rng.below(len(g2))
                u2 = g2[e2][rng.below(2)]
                instr = (kind, e1, u1, e2, u2)
            script.append(instr)
            _run(stack, instr)
    return stack[0], script


def gen_class_G(target_n: int, seed: int, max_leaf: int = 3) -> tuple[MultiGraph, tuple]:
    """Random member of the vee/cross closure of Eulerian multiedges.

    Grows a random binary plan whose leaves are multiedges on 2 vertices and
    whose joins merge exactly one vertex, so sizes work out to target_n
    exactly. Returns the graph and its construction script. max_leaf bounds
    the parallel-pair count per leaf, hence m <= 2 * max_leaf * (n - 1).
    """
    if target_n < 2:
        raise InvalidParamError(f"target_n={target_n}, need at least two vertices")
    if max_leaf < 1:
        raise InvalidParamError(f"max_leaf={max_leaf}, need at least one pair")
    _check_budget(target_n, 2 * max_leaf * (target_n - 1), "the graph could hold")
    rng = Rng(seed)

    def split(tn: int) -> tuple:
        if tn == 2:
            return ("M", 1 + rng.below(max_leaf))
        kind = "V" if rng.below(2) == 0 else "X"
        n1 = 2 + rng.below(tn - 2)
        return kind, n1, tn + 1 - n1

    raw, script = _grow(target_n, rng, split)
    return MultiGraph(raw[0], raw[1]), tuple(script)


def gen_class_H(target_n: int, seed: int) -> MultiGraph:
    """Random biconnected 4-regular treewidth-2 graph.

    Closed necklaces glued by edge identification, which adds vertex counts,
    so the plan splits target_n into parts of size >= 2.
    """
    if target_n < 2:
        raise InvalidParamError(f"target_n={target_n}, need at least two vertices")
    _check_budget(target_n, 2 * target_n, "the graph would hold")
    rng = Rng(seed)

    def split(tn: int) -> tuple:
        if tn <= 3 or rng.below(4) == 0:
            return ("N", tn)
        n1 = 2 + rng.below(tn - 3)
        return "E", n1, tn - n1

    raw, _ = _grow(target_n, rng, split)
    return MultiGraph(raw[0], raw[1])


def gen_class_H_prime(target_n: int, seed: int) -> MultiGraph:
    """Random connected even graph with max degree <= 4 and treewidth <= 2.

    Starts from a necklace or a cycle and grows by subdividing edges,
    edge-identifying fresh necklaces or cycles on, and gluing cycles at
    degree-2 vertices; every move keeps the class invariants, so membership
    holds by construction.
    """
    if target_n < 1:
        raise InvalidParamError(f"target_n={target_n}, need at least one vertex")
    _check_budget(target_n, 2 * target_n, "the graph could hold")
    if target_n == 1:
        return MultiGraph(1, [])
    rng = Rng(seed)
    if rng.below(2) == 0:
        g = _necklace(2 + rng.below(min(3, target_n - 1)))
    else:
        g = _cycle(2 + rng.below(min(4, target_n - 1)))
    while g[0] < target_n:
        room = target_n - g[0]
        choice = rng.below(4)
        if choice in (1, 2) and room < 2:
            choice = 0
        if choice == 3:
            deg: dict[int, int] = {}
            for a, b in g[1]:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            low = sorted(v for v in range(g[0]) if deg.get(v, 0) == 2)
            if not low:
                choice = 0
        if choice == 0:
            _subdivide(g, rng.below(len(g[1])))
        elif choice in (1, 2):
            if choice == 1:
                fresh = _necklace(2 + rng.below(min(2, room - 1)))
            else:
                fresh = _cycle(2 + rng.below(min(4, room - 1)))
            e1 = rng.below(len(g[1]))
            u1 = g[1][e1][rng.below(2)]
            e2 = rng.below(len(fresh[1]))
            u2 = fresh[1][e2][rng.below(2)]
            splice(g, e1, u1, fresh, e2, u2, merge=False)
        else:
            u1 = low[rng.below(len(low))]
            fresh = _cycle(2 + rng.below(min(4, room)))
            u2 = rng.below(fresh[0])
            join_vertex(g, u1, fresh, u2)
    return MultiGraph(g[0], g[1])


def gen_random_eulerian(n: int, extra_cycles: int, seed: int) -> MultiGraph:
    """Connected even graph: a spanning cycle through a shuffled vertex
    order plus extra_cycles short random cycles. extra_cycles = 0 gives a
    plain (relabeled) cycle. Each extra cycle has at most 6 edges."""
    if n < 1:
        raise InvalidParamError(f"n={n}, need at least one vertex")
    if extra_cycles < 0:
        raise InvalidParamError(f"extra_cycles={extra_cycles} must not be negative")
    _check_budget(n, n + 6 * extra_cycles, "the graph could hold")
    if n == 1:
        return MultiGraph(1, [])
    rng = Rng(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    for _ in range(extra_cycles):
        length = 2 + rng.below(max(1, min(n, 6) - 1))
        pool = list(range(n))
        for i in range(length):
            j = i + rng.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        cyc = pool[:length]
        edges.extend((cyc[i], cyc[(i + 1) % length]) for i in range(length))
    return MultiGraph(n, edges)


_SCRIPT_ARITY = {"M": 1, "N": 1, "C": 1, "D": 1, "V": 2, "E": 4, "X": 4}


def script_to_text(script: tuple) -> str:
    return "".join(" ".join(str(x) for x in instr) + "\n" for instr in script)


def parse_script(text: str) -> tuple:
    """Parse the script language; inverse of script_to_text."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        op = parts[0]
        arity = _SCRIPT_ARITY.get(op)
        if arity is None:
            raise InvalidParamError(f"line {ln}: unknown instruction {op!r}")
        if len(parts) != arity + 1:
            raise InvalidParamError(f"line {ln}: {op} takes {arity} arguments")
        try:
            args = [int(p) for p in parts[1:]]
        except ValueError:
            raise InvalidParamError(f"line {ln}: arguments must be integers") from None
        out.append((op, *args))
    return tuple(out)


def replay_script(script: tuple) -> MultiGraph:
    """Evaluate a construction script and return its graph.

    The stack holds [n, edge list] pairs that leaves, subdivisions and the
    operator core rewrite in place; one MultiGraph is built at the end, id
    for id the graph that the public operators give. Each instruction is
    checked as the public generators and operators check it, with the same
    errors. TooLargeError is raised before a leaf or a subdivision would
    put more than multigraph.MAX_VERTICES vertices or edges on the stack.
    """
    stack: list[list] = []
    total_n = total_m = 0
    for i, instr in enumerate(script, start=1):
        op = instr[0]
        if op in _LEAVES:
            k = instr[1]
            _check_leaf(op, k)
            total_n += 2 if op == "M" else k
            total_m += k if op == "C" else 2 * k
            _check_budget(total_n, total_m, "the stack would hold", i)
        elif op == "D":
            if not stack:
                raise InvalidParamError("script pops from an empty stack")
            check_edge(len(stack[-1][1]), instr[1], "e")
            total_n += 1
            total_m += 1
            _check_budget(total_n, total_m, "the stack would hold", i)
        elif op in ("V", "E", "X"):
            if len(stack) < 2:
                raise InvalidParamError("script pops from an empty stack")
            g1, g2 = stack[-2], stack[-1]
            if op == "V":
                check_join(g1, instr[1], g2, instr[2])
                total_n -= 1
            else:
                check_splice(g1, instr[1], instr[2], g2, instr[3], instr[4])
                if op == "X":
                    total_n -= 1
                    total_m -= 1
        else:
            raise InvalidParamError(f"unknown instruction {op!r}")
        _run(stack, instr)
    if len(stack) != 1:
        raise InvalidParamError(f"script leaves {len(stack)} graphs on the stack")
    return MultiGraph(*stack[0])
