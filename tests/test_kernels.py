"""The cycle kernels against their reference implementations in helpers.

``reduce_low_degree``, ``shortest_cycle`` and ``_canonical_cycle`` must return
exactly what the per-step rebuild, the uncut per-edge BFS and the scan of
every rotation return: the same events, the same reduced graph (edge order
included) and the same canonical cycle.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import multigraphs, ref_canonical_cycle, ref_reduce_low_degree, ref_shortest_cycle

from eppack.cycles import reduce_low_degree
from eppack.graph import MultiGraph, _canonical_cycle


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


@st.composite
def cycle_sequences(draw):
    """A cycle's vertex and edge sequences: L from 2 to 12, distinct
    vertices and distinct edge ids, both in arbitrary order."""
    size = draw(st.integers(2, 12))
    verts = draw(st.lists(st.integers(0, 40), min_size=size, max_size=size, unique=True))
    eids = draw(st.lists(st.integers(0, 60), min_size=size, max_size=size, unique=True))
    return verts, eids


@settings(max_examples=1000)
@given(cycle_sequences())
@example(([5, 3], [8, 1]))
@example(([5, 3], [1, 8]))
@example(([0, 1, 2], [7, 8, 9]))
def test_canonical_cycle_matches_reference(seqs):
    verts, eids = seqs
    assert _canonical_cycle(verts, eids) == ref_canonical_cycle(verts, eids)
    assert _canonical_cycle(tuple(verts), tuple(eids)) == ref_canonical_cycle(verts, eids)
