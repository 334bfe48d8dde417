import math

import pytest

from eppack.certificates import builtin_detectors, cycles_detector, verify_cover, verify_packing
from eppack.decomp import (
    Ceiling,
    TreeDecomposition,
    balanced_separation,
    compose_ep,
    cover_connected_bounded_tw,
    disconnected_pattern_ep,
    exact_elimination_td,
    min_fill_td,
    to_nice,
    validate_td,
)
from eppack.errors import CeilingViolated, InvalidDecomposition, ParameterEstimateUnavailable
from eppack.gen import gnp
from eppack.graph import MultiGraph


def test_validate_td_positive_and_negative():
    g = MultiGraph.cycle_graph(4)
    tree = MultiGraph.from_edges(range(2), [(0, 1)])
    good = TreeDecomposition(
        tree, {0: frozenset({0, 1, 3}), 1: frozenset({1, 2, 3})}
    )
    assert validate_td(g, good)

    missing_edge = TreeDecomposition(
        tree, {0: frozenset({0, 1}), 1: frozenset({2, 3})}
    )
    check = validate_td(g, missing_edge)
    assert not check and check.violations[0][0] == "edge-in-no-bag"

    missing_vertex = TreeDecomposition(
        tree, {0: frozenset({0, 1}), 1: frozenset({1, 2})}
    )
    assert validate_td(g, missing_vertex).violations[0][0] == "vertex-in-no-bag"

    disconnected_trace = TreeDecomposition(
        MultiGraph.from_edges(range(3), [(0, 1), (1, 2)]),
        {0: frozenset({0, 1}), 1: frozenset({1, 2}), 2: frozenset({0, 2, 3})},
    )
    check = validate_td(g, disconnected_trace)
    assert not check and check.violations[0][0] == "bags-of-vertex-disconnected"


def test_widths_on_known_graphs():
    assert exact_elimination_td(MultiGraph.complete(5)).width() == 4
    assert exact_elimination_td(MultiGraph.cycle_graph(7)).width() == 2
    assert exact_elimination_td(MultiGraph.path_graph(6)).width() == 1
    assert exact_elimination_td(MultiGraph.petersen()).width() == 4
    # heuristic never beats exact
    for seed in range(10):
        g = gnp(9, 0.35, seed)
        assert min_fill_td(g).width() >= exact_elimination_td(g).width()


def test_min_fill_always_valid():
    for seed in range(15):
        g = gnp(13, 0.25, seed)
        td = min_fill_td(g)
        assert validate_td(g, td)


def test_to_nice_preserves_width_and_validity():
    for seed in range(10):
        g = gnp(11, 0.3, seed)
        td = min_fill_td(g)
        ntd = to_nice(g, td)
        ntd.audit()
        assert ntd.width() == td.width()
        assert validate_td(g, ntd.to_td())
        assert ntd.nodes[ntd.root].bag == frozenset()


def test_to_nice_rejects_invalid_input():
    g = MultiGraph.cycle_graph(4)
    bad = TreeDecomposition(
        MultiGraph.from_edges(range(2), [(0, 1)]),
        {0: frozenset({0, 1}), 1: frozenset({2, 3})},
    )
    with pytest.raises(InvalidDecomposition):
        to_nice(g, bad)


def test_balanced_separation_properties():
    det = cycles_detector()
    for seed in range(20):
        g = gnp(12, 0.3, seed)
        td = min_fill_td(g)
        ntd = to_nice(g, td)
        sep = balanced_separation(g, ntd, det.exact_vpack)
        assert sep.validate(g)
        k = det.exact_vpack(g)
        if k == 0:
            assert sep.b == frozenset()
            continue
        assert sep.order <= td.width() + 1
        for side in (sep.a - sep.b, sep.b - sep.a):
            assert 3 * det.exact_vpack(g.induced(side)) <= 2 * k


def test_deep_trees_need_no_recursion():
    # a path ending in a triangle: its decomposition is a path of about n
    # bags, so a walk that recursed once per level would overflow the stack
    n = 1500
    g = MultiGraph.from_edges(
        range(n), [(i, i + 1) for i in range(n - 1)] + [(n - 3, n - 1)]
    )
    td = min_fill_td(g)
    ntd = to_nice(g, td)
    assert ntd.width() == td.width() == 2
    post = ntd.postorder()
    pos = {t: i for i, t in enumerate(post)}
    assert len(pos) == len(ntd.nodes) and post[-1] == ntd.root
    assert all(pos[c] < pos[t] for t, node in ntd.nodes.items() for c in node.children)

    def cycle_rank(h):
        return h.m - h.n + len(h.components())

    sep = balanced_separation(g, ntd, cycle_rank)
    assert sep.validate(g) and sep.order <= td.width() + 1
    for side in (sep.a - sep.b, sep.b - sep.a):
        assert 3 * cycle_rank(g.induced(side)) <= 2


def test_ceiling_check():
    assert Ceiling(lambda k: 3 * k).check()
    assert not Ceiling(lambda k: 10 - k).check()


def test_cover_connected_bounded_tw():
    det = cycles_detector()
    for seed in range(10):
        g = gnp(12, 0.25, seed)
        td = min_fill_td(g)
        ceiling = Ceiling(lambda k, a=max(1, td.width()): a * k)
        try:
            cover = cover_connected_bounded_tw(g, det, ceiling, td)
        except CeilingViolated:
            continue
        assert verify_cover(g, det, cover)


def test_cover_connected_ceiling_violation():
    det = cycles_detector()
    g = MultiGraph.complete(6)  # one packing, width 5
    with pytest.raises(CeilingViolated):
        cover_connected_bounded_tw(g, det, Ceiling(lambda k: k))


def test_disconnected_pattern_ep_both_sides():
    dets = builtin_detectors()
    g = MultiGraph.from_edges(
        range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    td = min_fill_td(g)
    out = disconnected_pattern_ep(g, td, [dets["triangles"]], 2)
    assert out.packing is not None and len(out.packing) == 2
    assert verify_packing(g, dets["triangles"], out.packing)

    out = disconnected_pattern_ep(g, td, [dets["triangles"]], 3)
    assert out.cover is not None
    assert verify_cover(g, dets["triangles"], out.cover)
    max_bag = max(len(b) for b in td.bags.values())
    assert out.report.bound_claimed == max_bag * (3 - 1)
    assert len(out.cover) <= out.report.bound_claimed


def test_disconnected_two_families():
    dets = builtin_detectors()
    # two disjoint triangles and two disjoint 4-cycles: each family holds
    # k*q = 2 disjoint members, so a packing of one union must exist
    g = MultiGraph.from_edges(
        range(14),
        [
            (0, 1), (1, 2), (0, 2),
            (3, 4), (4, 5), (3, 5),
            (6, 7), (7, 8), (8, 9), (6, 9),
            (10, 11), (11, 12), (12, 13), (10, 13),
        ],
    )
    td = min_fill_td(g)
    out = disconnected_pattern_ep(g, td, [dets["triangles"], dets["cycles"]], 1)
    assert out.packing is not None
    member = out.packing.members[0]
    assert len(member.vertices) >= 6  # union of both component witnesses


def test_compose_ep():
    det = cycles_detector()

    def family(r):
        def solve(g):
            td = min_fill_td(g)
            return cover_connected_bounded_tw(
                g, det, Ceiling(lambda k: max(r, 1) * max(k, 1)), td
            )

        return solve

    solver = compose_ep(Ceiling(lambda k: 4 * k), family, det.exact_vpack)
    g = gnp(10, 0.3, 2)
    cover = solver(g)
    assert verify_cover(g, det, cover)

    bare = compose_ep(Ceiling(lambda k: k), family, None)
    with pytest.raises(ParameterEstimateUnavailable):
        bare(g)
