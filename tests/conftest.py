from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import cycledec as cd

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def multigraphs(draw, min_n=1, max_n=8, max_m=14):
    n = draw(st.integers(min_n, max_n))
    if n == 1:
        return cd.MultiGraph(1, [])
    m = draw(st.integers(0, max_m))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, min_size=m, max_size=m))
    return cd.MultiGraph(n, edges)


@st.composite
def eulerian_graphs(draw, max_n=10, max_extra=3):
    n = draw(st.integers(2, max_n))
    extra = draw(st.integers(0, max_extra))
    seed = draw(seeds)
    return cd.gen_random_eulerian(n, extra, seed)


@st.composite
def built_graphs(draw, max_n=10):
    n = draw(st.integers(2, max_n))
    seed = draw(seeds)
    return cd.gen_class_G(n, seed, max_leaf=2)[0]


@st.composite
def connected_multigraphs(draw, max_n=9, max_extra=8):
    """Connected multigraphs: a random tree plus random extra edges, in a
    random edge order, so that bridges and cut vertices are common."""
    n = draw(st.integers(2, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges += draw(st.lists(pairs, max_size=max_extra))
    return cd.MultiGraph(n, draw(st.permutations(edges)))


@st.composite
def graph_texts(draw, max_n=6, max_m=8):
    """Text in the p/e graph format, valid or mutated: lines dropped,
    repeated or added, comments and blank lines, loops, out-of-range ids,
    an oversize header, and tokens dropped, added or replaced by out-of-range ids,
    non-integers and oversize counts."""
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, max_size=max_m)) if n > 1 else []
    rows = [["p", str(n), str(len(edges))]] + [["e", str(u), str(v)] for u, v in edges]
    odd = st.sampled_from(["-1", str(n), "x", "1.5", "", "p", "e", "#", "0", "1",
                           str(cd.multigraph.MAX_VERTICES + 1), "1000000000000"])
    kinds = st.sampled_from(["drop", "repeat", "filler", "loop", "range", "oversize", "cut", "add", "replace"])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(kinds)
        i = draw(st.integers(0, len(rows)))
        if kind == "filler":
            rows.insert(i, [draw(st.sampled_from(["#", "# note", "", "   ", "\t"]))])
            continue
        if not rows:
            continue
        i = min(i, len(rows) - 1)
        row = rows[i]
        if kind == "drop":
            del rows[i]
        elif kind == "repeat":
            rows.insert(i, list(row))
        elif kind in ("loop", "range"):
            if len(row) == 3 and row[0] == "e":
                row[2] = row[1] if kind == "loop" else draw(st.sampled_from(["-1", str(n), "99"]))
        elif kind == "oversize":
            if len(row) == 3 and row[0] == "p":
                row[1] = str(cd.multigraph.MAX_VERTICES + draw(st.integers(1, 10**6)))
        elif kind == "add":
            row.insert(draw(st.integers(0, len(row))), draw(odd))
        elif row:
            j = draw(st.integers(0, len(row) - 1))
            if kind == "cut":
                del row[j]
            else:
                row[j] = draw(odd)
    return "\n".join(" ".join(row) for row in rows) + draw(st.sampled_from(["", "\n"]))
