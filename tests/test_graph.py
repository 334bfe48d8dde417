import pytest

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
    assert g.girth() == 2
    assert MultiGraph.cycle_graph(5).girth() == 5
    assert MultiGraph.path_graph(4).girth() is None
    assert MultiGraph.petersen().girth() == 5


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
    assert t.girth() == 2


def test_induced_keeps_ids():
    g = MultiGraph.complete(4)
    h = g.induced({1, 2, 3})
    assert h.vertices == frozenset({1, 2, 3})
    assert h.m == 3
    assert all(set(h.endpoints(e)) <= {1, 2, 3} for e in h.edges)


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
