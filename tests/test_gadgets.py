from dataclasses import replace

import pytest

from eppack.errors import InvalidParameter, PreconditionViolated, UnknownIdentifier
from eppack.gadgets import (
    gamma,
    route_avoiding,
    thicken,
    thicken_minor,
    thicken_subcubic,
    verify_minor_model,
    verify_subdivision_model,
    MinorModel,
    SubdivisionModel,
)
from eppack.graph import MultiGraph
from eppack.rng import SplitMix64

from helpers import ref_thicken_subcubic

K5 = MultiGraph.complete(5)
K33 = MultiGraph.complete_bipartite(3, 3)


def test_gamma_counts():
    g = gamma(4, 3)
    assert g.graph.n == 12 * 6 + 3 == 75
    assert len(g.apex_groups) == 3
    assert len(g.ports) == 4 * 3
    tiny = gamma(1, 1)
    assert tiny.graph.n == 2 and tiny.graph.m == 1
    assert gamma(2, 2).graph.n == 14
    with pytest.raises(InvalidParameter):
        gamma(0, 1)


def test_gamma_apex_wiring():
    g = gamma(3, 2)
    for (copy, j), group in g.apex_groups.items():
        (a,) = group
        nbrs = g.graph.neighbors(a)
        assert len(nbrs) == 3
        cols = sorted(g.labels[v][3] for v in nbrs)
        assert cols == [3 * j, 3 * j + 1, 3 * j + 2]
        assert all(g.labels[v][2] == 0 for v in nbrs)  # first row


def test_thicken_smallest_case():
    k2 = MultiGraph.complete(2)
    t = thicken(k2, 1)
    assert t.graph.n == 4
    assert t.graph.m == 3
    assert len(t.bundles) == 1


def test_thicken_counts_and_determinism():
    t = thicken(K5, 3)
    per_copy = 4 * 3 * (4 + 3 - 1) + 3
    assert t.graph.n == 5 * per_copy
    assert all(len(eids) == 3 for eids in t.bundles.values())
    again = thicken(K5, 3)
    assert t.graph == again.graph
    assert t.labels == again.labels


def test_thicken_rejects_bad_patterns():
    with pytest.raises(InvalidParameter):
        thicken(MultiGraph(range(3), {}), 2)  # no edges
    with pytest.raises(InvalidParameter):
        thicken(MultiGraph.theta(2), 2)  # parallel edges


def test_subcubic_degree_audit():
    t = thicken_subcubic(K33, 2)
    assert max(t.graph.degree(v) for v in t.graph.vertices) <= 3
    tm = thicken_minor(K5, 2)
    assert max(tm.graph.degree(v) for v in tm.graph.vertices) <= 3


PATTERNS = {
    "k2": MultiGraph.complete(2),
    "k3": MultiGraph.complete(3),
    "k4": MultiGraph.complete(4),
    "k5": K5,
    "k33": K33,
    "petersen": MultiGraph.petersen(),
    "c5": MultiGraph.cycle_graph(5),
    "p3": MultiGraph.path_graph(3),
}


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_subcubic_matches_frozen_caterpillars(name):
    h = PATTERNS[name]
    for k in range(1, 5):
        ref = ref_thicken_subcubic(h, k)
        for got in (thicken_subcubic(h, k), thicken_minor(h, k)):
            assert got == replace(ref, variant=got.variant)
            assert list(got.graph.edges.items()) == list(ref.graph.edges.items())
            assert list(got.labels.items()) == list(ref.labels.items())


def test_canonical_models_verify():
    t = thicken(K5, 2)
    m = route_avoiding(t, ())
    assert isinstance(m, SubdivisionModel)
    assert verify_subdivision_model(t.graph, K5, m)

    ts = thicken_subcubic(K33, 2)
    assert verify_subdivision_model(ts.graph, K33, route_avoiding(ts, ()))

    tm = thicken_minor(K5, 2)
    mm = route_avoiding(tm, ())
    assert isinstance(mm, MinorModel)
    assert verify_minor_model(tm.graph, K5, mm)


def test_route_avoiding_respects_x():
    t = thicken(K5, 3)
    rng = SplitMix64(11)
    verts = sorted(t.graph.vertices)
    for _ in range(15):
        x = frozenset(rng.sample(verts, 2))
        m = route_avoiding(t, x)
        used = set(m.branch.values())
        for p in m.paths.values():
            used.update(p)
        assert not (used & x)
        assert verify_subdivision_model(t.graph, K5, m)


def test_route_avoiding_minor_variant():
    tm = thicken_minor(K5, 2)
    rng = SplitMix64(13)
    verts = sorted(tm.graph.vertices)
    for _ in range(10):
        x = frozenset(rng.sample(verts, 1))
        m = route_avoiding(tm, x)
        used = set().union(*m.branch_sets.values())
        assert not (used & x)
        assert verify_minor_model(tm.graph, K5, m)


def test_route_precondition():
    t = thicken(K5, 2)
    verts = sorted(t.graph.vertices)
    with pytest.raises(PreconditionViolated):
        route_avoiding(t, frozenset(verts[:2]))
    with pytest.raises(InvalidParameter):
        route_avoiding(gamma(2, 2), frozenset())
    for stray in (max(verts) + 1, 999999, -5):
        with pytest.raises(UnknownIdentifier):
            route_avoiding(t, frozenset({stray}))


def test_verifiers_reject_broken_models():
    t = thicken(MultiGraph.complete(2), 1)
    m = route_avoiding(t, ())
    k2 = MultiGraph.complete(2)
    assert verify_subdivision_model(t.graph, k2, m)
    # shared internal vertex across paths
    bad = SubdivisionModel(m.branch, {key: p + (p[0],) for key, p in m.paths.items()})
    assert not verify_subdivision_model(t.graph, k2, bad)
    # branch vertices must be distinct
    v = next(iter(m.branch.values()))
    bad2 = SubdivisionModel({u: v for u in m.branch}, m.paths)
    assert not verify_subdivision_model(t.graph, k2, bad2)


def test_minor_verifier_rejects_overlap():
    tm = thicken_minor(K5, 2)
    m = route_avoiding(tm, ())
    sets = dict(m.branch_sets)
    a, b = sorted(sets)[:2]
    sets[a] = sets[a] | {min(sets[b])}
    assert not verify_minor_model(tm.graph, K5, MinorModel(sets, m.edge_map))
