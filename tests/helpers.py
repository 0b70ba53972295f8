"""Naive reference implementations and small builders shared by the tests.

Everything here is deliberately slow and simpleminded; the point is
independence from the library's own algorithms.
"""

from __future__ import annotations

import cycledec as cd


def canon(g: cd.MultiGraph):
    return cd.endpoint_multiset(g)


def mk_k5() -> cd.MultiGraph:
    return cd.MultiGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


def mk_k4() -> cd.MultiGraph:
    return cd.MultiGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def mk_bowtie() -> cd.MultiGraph:
    c3 = cd.gen_cycle(3)
    return cd.vertex_identification(c3, 0, c3, 0)[0]


def naive_bridges(g: cd.MultiGraph) -> list[int]:
    out = []
    for e in range(g.m):
        u, v = g.endpoints(e)
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for f in g.incident(x):
                if f == e:
                    continue
                w = g.other(f, x)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if v not in seen:
            out.append(e)
    return out


def naive_components(g: cd.MultiGraph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the components by label propagation over the edge list,
    each sorted, ordered by smallest vertex."""
    label = list(range(g.n))
    changed = True
    while changed:
        changed = False
        for u, v in g.edges():
            low = min(label[u], label[v])
            if label[u] != low or label[v] != low:
                label[u] = label[v] = low
                changed = True
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(label[v], []).append(v)
    return tuple(tuple(vs) for vs in groups.values())


def naive_cut_vertices(g: cd.MultiGraph) -> set[int]:
    if g.n == 1:
        return set()
    base = len(cd.connected_components(g))
    out = set()
    for v in range(g.n):
        sub, _, _ = cd.induced_subgraph(g, (w for w in range(g.n) if w != v))
        if len(cd.connected_components(sub)) > base:
            out.add(v)
    return out


def brute_tw_le_2(g: cd.MultiGraph) -> bool:
    """Width-2 elimination search: a vertex may be eliminated when it sees at
    most two not-yet-eliminated vertices through the eliminated set. Such an
    order exists iff the graph has a tree decomposition of width <= 2."""
    n = g.n
    adj = [0] * n
    for u, v in g.edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    memo: dict[int, bool] = {}

    def reach(v: int, S: int) -> int:
        res = 0
        seen = 1 << v
        stack = [v]
        while stack:
            x = stack.pop()
            rest = adj[x] & ~seen
            while rest:
                wbit = rest & -rest
                rest ^= wbit
                seen |= wbit
                if S & wbit:
                    stack.append(wbit.bit_length() - 1)
                else:
                    res |= wbit
        return res

    def ok(S: int) -> bool:
        if S == full:
            return True
        hit = memo.get(S)
        if hit is not None:
            return hit
        ans = False
        for v in range(n):
            bit = 1 << v
            if S & bit:
                continue
            if bin(reach(v, S)).count("1") <= 2 and ok(S | bit):
                ans = True
                break
        memo[S] = ans
        return ans

    return ok(0)


def elimination_tw_le_2(g: cd.MultiGraph) -> bool:
    """Decide treewidth <= 2 by exhaustive degree-<=2 kernelization.

    Parallel edges collapse into the underlying simple graph first (they
    never change treewidth beyond width 1). Removing a vertex of degree at
    most 2 and joining its neighbours preserves the property, and the
    reduction is confluent, so the graph empties iff treewidth is <= 2.
    """
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    alive = g.n
    removed = bytearray(g.n)
    queue = [v for v in range(g.n) if len(adj[v]) <= 2]
    while queue:
        v = queue.pop()
        if removed[v] or len(adj[v]) > 2:
            continue
        ns = tuple(adj[v])
        removed[v] = 1
        adj[v].clear()
        for w in ns:
            adj[w].discard(v)
        if len(ns) == 2:
            a, b = ns
            adj[a].add(b)
            adj[b].add(a)
        for w in ns:
            if len(adj[w]) <= 2:
                queue.append(w)
        alive -= 1
    return alive == 0


def check_cycle(g: cd.MultiGraph, cyc: cd.Cycle) -> None:
    """Structural validity of one cycle against g: distinct vertices, distinct
    edges, consecutive steps incident."""
    steps = cyc.steps
    assert len(steps) >= 2
    verts = [v for v, _ in steps]
    assert len(set(verts)) == len(verts), "cycle repeats a vertex"
    edges = [e for _, e in steps]
    assert len(set(edges)) == len(edges), "cycle repeats an edge"
    for i, (v, e) in enumerate(steps):
        w = steps[(i + 1) % len(steps)][0]
        a, b = g.endpoints(e)
        assert {a, b} == {v, w}, f"step {i} not incident"


def mutate_with_cycle(g: cd.MultiGraph, seed: int) -> cd.MultiGraph:
    """Add one short random cycle; keeps all degrees even and connectivity."""
    rng = cd.Rng(seed)
    length = 2 + rng.below(min(g.n, 4) - 1) if g.n > 2 else 2
    pool = list(range(g.n))
    for j in range(length):
        k = j + rng.below(g.n - j)
        pool[j], pool[k] = pool[k], pool[j]
    cyc = pool[:length]
    edges = list(g.edges()) + [(cyc[j], cyc[(j + 1) % length]) for j in range(length)]
    return cd.MultiGraph(g.n, edges)


def mixed_small_eulerian(index: int) -> cd.MultiGraph:
    """Deterministic mixed-family instance stream: built graphs, plain random
    Eulerian graphs, and mutated built graphs. Sizes aim at n <= 10."""
    kind = index % 3
    if kind == 0:
        n = 2 + (index * 7919 + 13) % 9
        return cd.gen_class_G(n, 1_000_000 + index, max_leaf=2)[0]
    if kind == 1:
        n = 3 + (index * 104729) % 8
        return cd.gen_random_eulerian(n, (index // 3) % 3, 2_000_000 + index)
    n = 2 + (index * 7919 + 13) % 9
    g = cd.gen_class_G(n, 3_000_000 + index, max_leaf=2)[0]
    return mutate_with_cycle(g, 4_000_000 + index)


def small_eulerian_corpus(count: int, max_m: int = 16, max_n: int = 10) -> list[cd.MultiGraph]:
    out = []
    index = 0
    while len(out) < count:
        g = mixed_small_eulerian(index)
        index += 1
        if g.n <= max_n and g.m <= max_m:
            out.append(g)
    return out


def operator_replay(script) -> cd.MultiGraph:
    """Evaluate a construction script one public operator call at a time,
    building a new graph per instruction: the reference for replay_script."""
    stack: list[cd.MultiGraph] = []

    def pop2() -> tuple[cd.MultiGraph, cd.MultiGraph]:
        if len(stack) < 2:
            raise cd.InvalidParamError("script pops from an empty stack")
        g2 = stack.pop()
        g1 = stack.pop()
        return g1, g2

    for instr in script:
        op = instr[0]
        if op == "M":
            stack.append(cd.gen_eulerian_multiedge(instr[1]))
        elif op == "N":
            stack.append(cd.gen_closed_necklace(instr[1]))
        elif op == "C":
            stack.append(cd.gen_cycle(instr[1]))
        elif op == "D":
            if not stack:
                raise cd.InvalidParamError("script pops from an empty stack")
            stack.append(cd.subdivide_edge(stack.pop(), instr[1]))
        elif op == "V":
            g1, g2 = pop2()
            stack.append(cd.vertex_identification(g1, instr[1], g2, instr[2])[0])
        elif op == "E":
            g1, g2 = pop2()
            stack.append(cd.edge_identification(g1, instr[1], instr[2], g2, instr[3], instr[4])[0])
        elif op == "X":
            g1, g2 = pop2()
            stack.append(cd.vertex_edge_identification(g1, instr[1], instr[2], g2, instr[3], instr[4])[0])
        else:
            raise cd.InvalidParamError(f"unknown instruction {op!r}")
    if len(stack) != 1:
        raise cd.InvalidParamError(f"script leaves {len(stack)} graphs on the stack")
    return stack[0]


def script_numbers(script) -> tuple[int, int]:
    """(c, nu) of a construction script's graph by the operator arithmetic:
    M k -> (k, k), N k -> (2, k), C k -> (1, 1); V adds, E and X add and
    subtract one, D keeps."""
    stack: list[tuple[int, int]] = []
    for ins in script:
        op = ins[0]
        if op == "M":
            stack.append((ins[1], ins[1]))
        elif op == "N":
            stack.append((2, ins[1]))
        elif op == "C":
            stack.append((1, 1))
        elif op != "D":
            c2, n2 = stack.pop()
            c1, n1 = stack.pop()
            drop = 0 if op == "V" else 1
            stack.append((c1 + c2 - drop, n1 + n2 - drop))
    (numbers,) = stack
    return numbers


def worklist_cycle_numbers(g: cd.MultiGraph, edge_limit: int = cd.DEFAULT_EDGE_LIMIT,
                           order_seed=None) -> tuple[int, int]:
    """(c, nu) through the separation worklist alone, as numbers computed it
    before the series-parallel tables: per block, k steps leave k + 1 final
    components and each step costs one cycle in both extremes; an Eulerian
    multiedge component gives m/2 and every other one goes to the oracle."""
    c_total = nu_total = 0
    for block in cd.blocks(g).blocks:
        if block.graph.m == 0:
            continue
        _, trace = cd.ve_components(block.graph, order_seed=order_seed)
        k = len(trace.steps)
        c_block = nu_block = 0
        for comp in trace.components:
            cg = comp.graph
            if cd.is_eulerian_multiedge(cg):
                c_block += cg.m // 2
                nu_block += cg.m // 2
            elif cg.m > edge_limit:
                raise cd.ComponentTooLargeError(f"final component with m={cg.m} exceeds {edge_limit}")
            else:
                res = cd.oracle_cycle_numbers(cg, edge_limit=edge_limit)
                c_block += res.c_min
                nu_block += res.nu_max
        c_total += c_block - k
        nu_total += nu_block - k
    return c_total, nu_total
