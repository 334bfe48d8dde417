import itertools
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import multigraphs, ref_inductive_edge_cover

from eppack.certificates import (
    cycles_detector,
    triangles_detector,
    verify_cover,
    verify_packing,
)
from eppack.errors import InvalidPartition
from eppack.gen import gnp
from eppack.graph import MultiGraph
from eppack.treepart import (
    TreePartition,
    bfs_layer_tp,
    inductive_edge_cover,
    tp_width,
    validate_tp,
)

C9 = MultiGraph.cycle_graph(9)
# BFS layers {0}, {1, 2, 3}, {4, 5}: the first round takes the triangle
# inside the middle layer, and the square 1-4-2-5 is left for the next round
# at the same node
LAYER_TRIANGLE_OVER_SQUARE = MultiGraph.from_edges(
    range(6),
    [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (1, 5), (2, 5)],
)


def _c9_two_bags():
    tree = MultiGraph.from_edges(range(2), [(0, 1)])
    return TreePartition(
        tree, 0, {0: frozenset(range(5)), 1: frozenset(range(5, 9))}
    )


def test_validate_and_width_on_c9():
    tp = _c9_two_bags()
    assert validate_tp(C9, tp)
    # bag sizes 5 and 4, internal edges 4 and 3, cross edges 2
    assert tp_width(C9, tp) == 5


def test_wraparound_edge_breaks_three_bag_path():
    tree = MultiGraph.from_edges(range(3), [(0, 1), (1, 2)])
    tp = TreePartition(
        tree,
        0,
        {
            0: frozenset({0, 1, 2}),
            1: frozenset({3, 4, 5}),
            2: frozenset({6, 7, 8}),
        },
    )
    check = validate_tp(C9, tp)
    assert not check
    assert check.violations[0][0] == "edge-crosses-non-adjacent-bags"


def test_bag_vertex_outside_the_host():
    tp = _c9_two_bags()
    foreign = TreePartition(tp.tree, 0, {**tp.bags, 1: tp.bags[1] | {9, 12}})
    check = validate_tp(C9, foreign)
    assert not check and check.violations == [("bag-vertex-not-in-host", [9, 12])]


def test_single_bag_always_valid():
    g = MultiGraph.complete(5)
    tree = MultiGraph(range(1), {})
    tp = TreePartition(tree, 0, {0: frozenset(g.vertices)})
    assert validate_tp(g, tp)
    assert tp_width(g, tp) == max(g.n, g.m)


def test_validate_tp_agrees_with_direct_evaluator():
    # exhaustive over partitions of small hosts into at most 3 bags
    for seed in range(6):
        g = gnp(6, 0.4, seed)
        verts = sorted(g.vertices)
        tree = MultiGraph.from_edges(range(3), [(0, 1), (1, 2)])
        for assign in itertools.product(range(3), repeat=len(verts)):
            bags = {
                t: frozenset(v for v, a in zip(verts, assign) if a == t)
                for t in range(3)
            }
            tp = TreePartition(tree, 0, bags)
            direct = all(
                abs(assign[u] - assign[v]) <= 1 for u, v in g.edges.values()
            )
            assert bool(validate_tp(g, tp)) == direct


def test_width_monotone_under_edge_addition():
    tp = _c9_two_bags()
    base = tp_width(C9, tp)
    more = MultiGraph(
        C9.vertices, {**C9.edges, C9.next_edge_id(): (0, 2)}
    )
    assert tp_width(more, tp) >= base


def test_bfs_layer_tp_valid():
    for seed in range(8):
        g = gnp(14, 0.2, seed)
        tp = bfs_layer_tp(g)
        assert validate_tp(g, tp)


def test_cover_on_forest_is_empty():
    g = MultiGraph.path_graph(7)
    out = inductive_edge_cover(g, bfs_layer_tp(g), cycles_detector(), 2)
    assert out.cover is not None and len(out.cover) == 0


def test_c9_cover_within_bound():
    det = cycles_detector()
    tp = _c9_two_bags()
    out = inductive_edge_cover(C9, tp, det, 2)
    assert out.cover is not None
    assert verify_cover(C9, det, out.cover)
    r = tp_width(C9, tp)
    assert len(out.cover) <= 2 * r * (2 * r + 1)


def test_two_triangles_pack():
    det = cycles_detector()
    g = MultiGraph.from_edges(
        range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    tree = MultiGraph.from_edges(range(2), [(0, 1)])
    tp = TreePartition(
        tree, 0, {0: frozenset({0, 1, 2}), 1: frozenset({3, 4, 5})}
    )
    out = inductive_edge_cover(g, tp, det, 2)
    assert out.packing is not None and len(out.packing) == 2
    assert verify_packing(g, det, out.packing)


def test_invalid_partition_raises():
    det = cycles_detector()
    tree = MultiGraph.from_edges(range(2), [(0, 1)])
    tp = TreePartition(tree, 0, {0: frozenset({0, 1}), 1: frozenset({1, 2})})
    with pytest.raises(InvalidPartition):
        inductive_edge_cover(MultiGraph.complete(3), tp, det, 1)


def test_randomized_cover_bound():
    det = cycles_detector()
    for seed in range(12):
        g = gnp(12, 0.25, seed)
        tp = bfs_layer_tp(g)
        r = tp_width(g, tp)
        for k in (1, 2):
            out = inductive_edge_cover(g, tp, det, k)
            if out.packing is not None:
                assert verify_packing(g, det, out.packing)
            else:
                assert verify_cover(g, det, out.cover)
                assert len(out.cover) <= k * r * (2 * r + 1)


@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=12, max_pairs=18), st.integers(1, 4), st.booleans())
@example(LAYER_TRIANGLE_OVER_SQUARE, 2, False)
def test_inductive_edge_cover_matches_reference(g, k, triangles):
    # resuming each round's scan where the last one stopped finds the same
    # members, so the cover and the packing are the same
    det = triangles_detector() if triangles else cycles_detector()
    tp = bfs_layer_tp(g)
    assert inductive_edge_cover(g, tp, det, k) == ref_inductive_edge_cover(g, tp, det, k)


def test_inductive_edge_cover_on_long_path():
    # one scan of 1,100 nodes; each subtree is a path, which shortest_cycle
    # recognises as a forest without a BFS per edge
    g = MultiGraph.path_graph(1100)
    start = time.perf_counter()
    out = inductive_edge_cover(g, bfs_layer_tp(g), cycles_detector(), 1)
    assert out.cover is not None and not out.cover.elements
    assert time.perf_counter() - start < 20
