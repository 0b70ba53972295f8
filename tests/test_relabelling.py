"""Answers that must not depend on how a graph is labelled.

A random vertex permutation, edge order and endpoint order give the same
graph, so the verdict, the block tables, the treewidth decider, the
exhaustive oracle and the numbers through the decomposition must answer
alike on both labellings.
"""

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

import cycledec as cd
from conftest import built_graphs, eulerian_graphs


@st.composite
def relabelled_pairs(draw):
    g = draw(st.one_of(eulerian_graphs(max_n=9, max_extra=3), built_graphs(max_n=9)))
    perm = draw(st.permutations(range(g.n)))
    order = draw(st.permutations(range(g.m)))
    flips = draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    ends = [(perm[v], perm[u]) if flip else (perm[u], perm[v]) for (u, v), flip in zip(g.edges(), flips)]
    return g, cd.MultiGraph(g.n, [ends[e] for e in order])


def block_tables(g):
    return Counter(cd.series_parallel_numbers(b.graph) for b in cd.blocks(g).blocks if b.graph.m)


@given(relabelled_pairs())
def test_answers_ignore_the_labelling(pair):
    g, h = pair
    assert bool(cd.is_cycle_number_unique(g)) == bool(cd.is_cycle_number_unique(h))
    assert block_tables(g) == block_tables(h)
    assert cd.is_treewidth_at_most_2(g) == cd.is_treewidth_at_most_2(h)
    assert cd.cycle_numbers_via_decomposition(g) == cd.cycle_numbers_via_decomposition(h)
    if g.m <= 16:
        res_g, res_h = cd.oracle_cycle_numbers(g), cd.oracle_cycle_numbers(h)
        assert (res_g.c_min, res_g.nu_max) == (res_h.c_min, res_h.nu_max)
