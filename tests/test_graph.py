import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import multigraphs

from eppack.cycles import reduce_low_degree
from eppack.errors import (
    InvalidParameter,
    UnknownIdentifier,
    WouldCreateLoop,
)
from eppack.graph import Mode, MultiGraph


def test_basic_construction():
    g = MultiGraph.from_edges(range(3), [(0, 1), (1, 2), (0, 1)])
    assert g.n == 3
    assert g.m == 3
    assert g.edges_between(0, 1) == [0, 2]
    assert g.degree(1) == 3


def test_loops_rejected():
    with pytest.raises(WouldCreateLoop):
        MultiGraph(range(2), {0: (1, 1)})


def test_unknown_endpoint_rejected():
    with pytest.raises(UnknownIdentifier):
        MultiGraph(range(2), {0: (0, 5)})


def test_mode_parse():
    assert Mode.parse("v") is Mode.VERTEX
    assert Mode.parse("e") is Mode.EDGE
    with pytest.raises(InvalidParameter):
        Mode.parse("x")


def test_delete_by_mode():
    g = MultiGraph.cycle_graph(4)
    assert g.delete({0}, Mode.VERTEX).n == 3
    assert g.delete({0}, Mode.EDGE).m == 3
    with pytest.raises(UnknownIdentifier):
        g.delete({4}, Mode.VERTEX)
    with pytest.raises(UnknownIdentifier):
        g.delete({4}, Mode.EDGE)


def test_components_and_forest():
    g = MultiGraph.from_edges(range(5), [(0, 1), (2, 3)])
    assert len(g.components()) == 3
    assert g.is_forest()
    assert not g.is_connected()
    assert MultiGraph.cycle_graph(3).is_connected()
    assert not MultiGraph.cycle_graph(3).is_forest()


def test_girth_parallel_pair_is_two():
    g = MultiGraph.from_edges(range(2), [(0, 1), (0, 1)])
    assert len(g.shortest_cycle()) == 2
    assert len(MultiGraph.cycle_graph(5).shortest_cycle()) == 5
    assert MultiGraph.path_graph(4).shortest_cycle() is None
    assert len(MultiGraph.petersen().shortest_cycle()) == 5


def test_shortest_cycle_deterministic():
    g = MultiGraph.complete(5)
    c1 = g.shortest_cycle()
    c2 = g.shortest_cycle()
    assert c1 == c2
    assert len(c1) == 3


def test_theta_graph():
    t = MultiGraph.theta(4)
    assert t.n == 2
    assert t.m == 4
    assert len(t.shortest_cycle()) == 2


def test_induced_keeps_ids():
    g = MultiGraph.complete(4)
    h = g.induced({1, 2, 3})
    assert h.vertices == frozenset({1, 2, 3})
    assert h.m == 3
    assert all(set(h.endpoints(e)) <= {1, 2, 3} for e in h.edges)
    with pytest.raises(UnknownIdentifier):
        g.induced({1, 4})


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_core_degrees_match_repeated_leaf_deletion(g):
    core = g
    while low := [v for v, d in core.degrees().items() if d <= 1]:
        core = core.delete_vertices(low[:1])
    assert g.core_degrees() == core.degrees()
    assert g.is_forest() == (len(g.spanning_forest_edges()) == g.m)


def test_elements_by_mode():
    g = MultiGraph.cycle_graph(3)
    assert g.elements(Mode.VERTEX) == g.vertices
    assert g.elements(Mode.EDGE) == frozenset(g.edges)


def test_equality_and_hash():
    a = MultiGraph.cycle_graph(4)
    b = MultiGraph.cycle_graph(4)
    assert a == b
    assert hash(a) == hash(b)
    assert a != MultiGraph.path_graph(4)


def _view(g):
    """Everything a caller can read of g, as plain values, plus the raw rows:
    ``_cycle_along`` and the parallel-pair pass take their id lists as ascending."""
    rows = {v: {u: g.edges_between(v, u) for u in g.neighbors(v)} for v in g.vertices}
    return (
        g.vertices,
        dict(g.edges),
        rows,
        {v: dict(row) for v, row in g._adj.items()},
        {v: (g.incident(v), g.degree(v)) for v in g.vertices},
        g.shortest_cycle(),
    )


def _derive_checked(h, how, xs):
    """h's child by one derivation, and the full rebuild it must equal.

    Derivations share h's untouched rows and id lists, so h's raw rows must
    equal a deep copy taken before."""
    before = copy.deepcopy(h._adj)
    if how in ("delete_vertices", "induced"):
        child = h.induced(h.vertices - xs) if how == "induced" else h.delete_vertices(xs)
        kept = {eid: uv for eid, uv in h.edges.items() if not xs.intersection(uv)}
        want = MultiGraph(h.vertices - xs, kept)
    elif how == "reduce_low_degree":
        child = reduce_low_degree(h)[0]
        want = MultiGraph(child.vertices, child.edges)
    else:
        child = h.delete_edges(xs)
        want = MultiGraph(h.vertices, {eid: uv for eid, uv in h.edges.items() if eid not in xs})
    assert h._adj == before
    assert child == want and hash(child) == hash(want)
    assert _view(child) == _view(want)
    return child


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.data())
def test_derived_graphs_match_a_rebuild(g, data):
    # derived graphs share untouched rows with their parent: each must read
    # as a full rebuild, and no graph of the family may change, siblings
    # (as the oracle searches make them) included
    family, views = [g], [_view(g)]
    for _ in range(data.draw(st.integers(1, 5))):
        h = data.draw(st.sampled_from(family))
        how = data.draw(st.sampled_from(["delete_vertices", "induced", "delete_edges",
                                         "reduce_low_degree"]))
        pool = sorted(h.edges) if how == "delete_edges" else sorted(h.vertices)
        xs = data.draw(st.sets(st.sampled_from(pool))) if pool else set()
        family.append(_derive_checked(h, how, xs))
        views.append(_view(family[-1]))
    assert [_view(h) for h in family] == views


def test_suppression_onto_an_adjacent_pair_leaves_the_parent():
    # suppressing a degree-2 vertex whose neighbours are already adjacent
    # adds the fresh edge to an id list the reduced graph shares with g
    pendant_paths = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (1, 5), (5, 6), (6, 7)]
    for g in (MultiGraph.complete(3), MultiGraph.from_edges(range(8), pendant_paths)):
        view = _view(g)
        child = _derive_checked(g, "reduce_low_degree", set())
        assert child.m == 2 and len(child.underlying_pairs()) == 1
        assert _view(g) == view
