"""The cycle kernels against their reference implementations in helpers.

``reduce_low_degree`` and ``shortest_cycle`` must return exactly what the
per-step rebuild and the uncut per-edge BFS return: the same events, the same
reduced graph (edge order included) and the same canonical cycle.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import multigraphs, ref_reduce_low_degree, ref_shortest_cycle

from eppack.cycles import reduce_low_degree
from eppack.graph import MultiGraph


# A lone triangle reduces to a 2-cycle; which pair survives depends on the
# order in which its vertices are suppressed.
TRIANGLE = MultiGraph([9, 2, 5], {7: (5, 9), 3: (9, 2), 11: (2, 5)})
TRIANGLE_AND_PATH = MultiGraph([9, 2, 5, 0, 30], {7: (5, 9), 3: (9, 2), 11: (2, 5), 1: (0, 30)})


@settings(max_examples=400)
@given(multigraphs())
@example(TRIANGLE)
@example(TRIANGLE_AND_PATH)
@example(MultiGraph.theta(3))
def test_reduce_low_degree_matches_reference(g):
    h, trace = reduce_low_degree(g)
    ref_h, ref_trace = ref_reduce_low_degree(g)
    assert trace == ref_trace
    assert h == ref_h
    assert list(h.edges.items()) == list(ref_h.edges.items())
    assert (h is g) == (ref_h is g)


@settings(max_examples=400)
@given(st.one_of(multigraphs(), multigraphs(max_n=14, max_pairs=24, simple=True)))
@example(TRIANGLE)
@example(MultiGraph.petersen())
@example(MultiGraph.complete_bipartite(3, 3))
def test_shortest_cycle_matches_reference(g):
    assert g.shortest_cycle() == ref_shortest_cycle(g)
    h = reduce_low_degree(g)[0]
    assert h.shortest_cycle() == ref_shortest_cycle(h)
