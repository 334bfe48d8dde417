import os
import sys

import pytest
from hypothesis import example, given, settings

from helpers import (
    bf_ecover_cycles,
    bf_epack_cycles,
    bf_min_hitting,
    bf_vcover_cycles,
    bf_vpack_cycles,
    multigraphs,
    random_multigraph,
    ref_exact_epack_cycles,
    ref_exact_vcover_cycles,
    ref_exact_vpack_cycles,
    ref_pack_bound,
)

from eppack.certificates import cycles_detector, triangles_detector, verify_cover, verify_packing
from eppack.errors import BudgetExceeded, InvalidParameter
from eppack.gen import gnp
from eppack.graph import Mode, MultiGraph
from eppack.iso import enumerate_copies
from eppack.oracles import (
    _chordless_cycles,
    _core_rank,
    _pack_bound,
    _vcover_bound,
    default_budget,
    exact_cover_subgraph,
    exact_ecover_cycles,
    exact_epack_cycles,
    exact_pack_subgraph,
    exact_vcover_cycles,
    exact_vpack_cycles,
    greedy_subgraph_ep,
)
from eppack.rng import SplitMix64
from eppack.trees import rs_selection

K3 = MultiGraph.complete(3)


def test_anchor_values():
    k4 = MultiGraph.complete(4)
    k5 = MultiGraph.complete(5)
    pet = MultiGraph.petersen()
    assert exact_vpack_cycles(k4).value == 1
    assert exact_vcover_cycles(k4).value == 2
    assert exact_vpack_cycles(k5).value == 1
    assert exact_vcover_cycles(k5).value == 3
    assert exact_vpack_cycles(pet).value == 2
    assert exact_vcover_cycles(pet).value == 3
    assert exact_epack_cycles(k5).value == 3
    assert exact_pack_subgraph(k4, K3, Mode.EDGE).value == 1
    assert exact_cover_subgraph(k4, K3, Mode.EDGE).value == 2


def test_witnesses_verify():
    det = cycles_detector()
    for seed in range(10):
        g = gnp(9, 0.35, seed)
        r = exact_vpack_cycles(g)
        assert verify_packing(g, det, r.witness)
        assert len(r.witness) == r.value
        r = exact_vcover_cycles(g)
        assert verify_cover(g, det, r.witness)
        assert len(r.witness) == r.value
        r = exact_epack_cycles(g)
        assert verify_packing(g, det, r.witness)
        r = exact_ecover_cycles(g)
        assert verify_cover(g, det, r.witness)


def test_against_brute_force():
    for seed in range(25):
        g = gnp(8, 0.35, seed)
        assert exact_vpack_cycles(g).value == bf_vpack_cycles(g)
        assert exact_vcover_cycles(g).value == bf_vcover_cycles(g)
        assert exact_epack_cycles(g).value == bf_epack_cycles(g)
        assert exact_ecover_cycles(g).value == bf_ecover_cycles(g)


def _same_epack(g):
    got, ref = exact_epack_cycles(g), ref_exact_epack_cycles(g)
    assert got.value == ref.value
    assert [(w.vertices, w.edges) for w in got.witness.members] == [
        (w.vertices, w.edges) for w in ref.witness.members
    ]
    assert got.explored <= ref.explored


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=8, max_pairs=10))
@example(MultiGraph.complete(5))
@example(MultiGraph.petersen())
@example(MultiGraph.theta(3))
def test_epack_matches_reference(g):
    # the parity term prunes only subtrees that cannot beat the incumbent,
    # so the incumbents, and with them value and witness, stay the same
    _same_epack(g)


def test_epack_matches_reference_on_fixed_seeds():
    for seed in range(40):
        _same_epack(gnp(6 + seed % 6, 0.3 + 0.005 * seed, seed))
    rng = SplitMix64(606)
    for _ in range(60):
        _same_epack(random_multigraph(rng, max_n=9, max_m=16))


def test_epack_matches_reference_on_larger_multigraphs():
    # up to 22 edges, many of them parallel, where the search takes a
    # 2-cycle with one parallel mate only
    rng = SplitMix64(909)
    for _ in range(150):
        _same_epack(random_multigraph(rng, max_n=9, max_m=22))


def _same_vpack(g):
    got, ref = exact_vpack_cycles(g), ref_exact_vpack_cycles(g)
    assert got.value == ref.value
    assert [(w.vertices, w.edges) for w in got.witness.members] == [
        (w.vertices, w.edges) for w in ref.witness.members
    ]
    assert got.explored <= ref.explored


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=9, max_pairs=12))
@example(MultiGraph.complete(5))
@example(MultiGraph.petersen())
@example(MultiGraph.theta(3))
def test_vpack_matches_reference(g):
    # the 2-core bound prunes only subtrees that cannot beat the incumbent,
    # so the incumbents, and with them value and witness, stay the same
    _same_vpack(g)


def test_vpack_matches_reference_on_fixed_seeds():
    for seed in range(40):
        _same_vpack(gnp(6 + seed % 7, 0.25 + 0.006 * seed, seed))
    rng = SplitMix64(707)
    for _ in range(80):
        _same_vpack(random_multigraph(rng, max_n=10, max_m=18))


# the detector's value-only packer searches reduce_low_degree(g), or
# answers 0 on a forest; exact_vpack_cycles keeps searching g itself
@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=9, max_pairs=12))
@example(MultiGraph.path_graph(6))
@example(MultiGraph(range(3), {}))
@example(MultiGraph.from_edges(range(2), [(0, 1), (0, 1)]))
@example(MultiGraph.theta(3))
@example(MultiGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
@example(MultiGraph.from_edges(range(5), [(0, 1), (1, 2), (0, 3), (3, 2), (0, 4), (4, 2)]))
@example(MultiGraph.from_edges(
    range(9),
    [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 5), (6, 8)],
))
def test_detector_vpack_on_the_reduced_graph(g):
    # the last three examples reduce to parallel pairs: three 0-2 edges
    # from a 4-cycle with a chord and from a subdivided theta(3), and two
    # pairs from two chorded 4-cycles joined by a path
    assert cycles_detector().exact_vpack(g) == ref_exact_vpack_cycles(g).value == bf_vpack_cycles(g)


def test_detector_vpack_on_the_reduced_graph_on_fixed_seeds():
    det = cycles_detector()
    rng = SplitMix64(808)
    for _ in range(150):
        g = random_multigraph(rng, max_n=10, max_m=16)
        assert det.exact_vpack(g) == exact_vpack_cycles(g).value == bf_vpack_cycles(g)


def _same_vcover(g):
    got, ref = exact_vcover_cycles(g), ref_exact_vcover_cycles(g)
    assert got.value == ref.value
    assert got.witness.elements == ref.witness.elements
    assert got.explored <= ref.explored


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=9, max_pairs=12))
@example(MultiGraph.complete(5))
@example(MultiGraph.petersen())
@example(MultiGraph.theta(3))
@example(MultiGraph.from_edges(range(4), [(0, 1), (0, 1), (2, 3), (2, 3), (1, 2)]))
def test_vcover_matches_reference(g):
    # the rank bound drops only sizes and subtrees that cannot succeed, so
    # the first cover found, and with it value and witness, stays the same
    _same_vcover(g)


def test_vcover_matches_reference_on_fixed_seeds():
    for seed in range(40):
        _same_vcover(gnp(6 + seed % 7, 0.25 + 0.006 * seed, seed))
    rng = SplitMix64(1212)
    for _ in range(80):
        _same_vcover(random_multigraph(rng, max_n=10, max_m=18))


@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=8, max_pairs=12))
@example(MultiGraph.complete(5))
@example(MultiGraph.from_edges(range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]))
def test_vcover_bound_is_a_lower_bound(g):
    deg = g.core_degrees()
    assert _core_rank(g, deg) == g.m - g.n + len(g.components())
    assert _vcover_bound(g, deg) <= bf_vcover_cycles(g)


def _bound_holds(g):
    # no packing beats the bound, and the bound is no looser than the
    # whole-graph one it replaces; the brute force and the exact search agree
    c = g.shortest_cycle()
    girth = None if c is None else len(c)
    for mode, brute, exact in ((Mode.VERTEX, bf_vpack_cycles, exact_vpack_cycles),
                               (Mode.EDGE, bf_epack_cycles, exact_epack_cycles)):
        best = brute(g)
        assert best == exact(g).value
        for shortest in (None, girth) if girth else (None,):
            assert best <= _pack_bound(g, g.core_degrees(), mode, shortest) <= ref_pack_bound(
                g, mode, shortest)


# the brute forces take parallel edges as one pair with room for several
# edges, so hypothesis may draw multigraphs as well
@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=8, max_pairs=12))
@example(MultiGraph.from_edges(range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]))
def test_pack_bound_is_an_upper_bound(g):
    _bound_holds(g)


def test_pack_bound_is_an_upper_bound_on_multigraphs():
    rng = SplitMix64(808)
    for _ in range(80):
        _bound_holds(random_multigraph(rng, max_n=7, max_m=11))


def test_epack_branches_on_one_parallel_mate():
    # K4 with every edge tripled: a 2-cycle on each pair, then a triangle
    # on the six edges left.  The mates of an edge are interchangeable, so
    # the search takes a 2-cycle with one of them only.
    pairs = list(MultiGraph.complete(4).edges.values())
    g = MultiGraph.from_edges(range(4), pairs * 3)
    got = exact_epack_cycles(g)
    assert got.value == 7
    assert got.explored <= 67
    assert verify_packing(g, cycles_detector(), got.witness)


def test_multigraph_cycles():
    # two parallel pairs sharing no elements pack as two 2-cycles
    g = MultiGraph.from_edges(range(4), [(0, 1), (0, 1), (2, 3), (2, 3)])
    assert exact_vpack_cycles(g).value == 2
    assert exact_epack_cycles(g).value == 2
    assert exact_vcover_cycles(g).value == 2
    assert exact_ecover_cycles(g).value == 2
    theta = MultiGraph.theta(4)
    assert exact_epack_cycles(theta).value == 2
    assert exact_vpack_cycles(theta).value == 1
    assert exact_ecover_cycles(theta).value == 3


def test_chordless_cycles_on_a_long_cycle():
    # the DFS keeps one neighbour iterator per path vertex, not a frame
    g = MultiGraph.cycle_graph(1500)
    whole = tuple(range(1500))
    assert [c.vertices for c in _chordless_cycles(g, 0)] == [whole]
    assert [c.vertices for c in _chordless_cycles(g, 0, 1499)] == [whole]
    assert exact_vpack_cycles(g).value == 1


def test_subgraph_oracles_match_hitting():
    for seed in range(15):
        g = gnp(8, 0.45, seed)
        copies = enumerate_copies(g, K3)
        vsets = [vs for vs, _ in copies]
        esets = [es for _, es in copies]
        assert exact_cover_subgraph(g, K3, Mode.VERTEX).value == bf_min_hitting(
            g.vertices, vsets
        )
        assert exact_cover_subgraph(g, K3, Mode.EDGE).value == bf_min_hitting(
            set(g.edges), esets
        )


def test_budget_raises(monkeypatch):
    monkeypatch.setenv("EP_BUDGET", "5")
    g = gnp(14, 0.5, 1)
    with pytest.raises(BudgetExceeded):
        exact_vpack_cycles(g)


BUDGET_HOST = gnp(10, 0.466, 13)
# one family per width w of the w-vertex subpaths of an 8-vertex path: two
# disjoint members of each would need 12 vertices, so the search fails only
# after visiting every node
SUBPATHS = [[frozenset(range(a, a + w)) for a in range(9 - w)] for w in (1, 2, 3)]
# each search with the node count that its visit order fixes
SEARCH_NODES = {
    "vpack": (lambda: exact_vpack_cycles(BUDGET_HOST), 22),
    "vcover": (lambda: exact_vcover_cycles(BUDGET_HOST), 20),
    "epack": (lambda: exact_epack_cycles(BUDGET_HOST), 34),
    "tpack": (lambda: exact_pack_subgraph(BUDGET_HOST, K3, Mode.EDGE), 42),
    "tcover": (lambda: exact_cover_subgraph(BUDGET_HOST, K3, Mode.EDGE), 190),
    "rs_selection": (lambda: rs_selection(MultiGraph.path_graph(8), SUBPATHS, 2), 232),
}


@pytest.mark.parametrize("search", sorted(SEARCH_NODES))
def test_budget_caps_the_node_count(monkeypatch, search):
    run, nodes = SEARCH_NODES[search]
    monkeypatch.setenv("EP_BUDGET", str(nodes))
    run()
    monkeypatch.setenv("EP_BUDGET", str(nodes - 1))
    with pytest.raises(BudgetExceeded):
        run()


def test_searches_deeper_than_the_recursion_limit():
    # one search level per triangle or pick; the limit is lowered to 150
    # frames above this one, below the searches' depth of 300
    n = 300
    edges = [(3 * i + a, 3 * i + b) for i in range(n) for a, b in ((0, 1), (1, 2), (0, 2))]
    g = MultiGraph.from_edges(range(3 * n), edges)
    singletons = [frozenset({v}) for v in range(400)]
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        assert exact_vpack_cycles(g).value == n
        assert exact_vcover_cycles(g).value == n
        assert exact_cover_subgraph(g, K3, Mode.VERTEX).value == n
        got = rs_selection(MultiGraph.path_graph(400), [singletons], n)
    finally:
        sys.setrecursionlimit(limit)
    assert got == [singletons[:n]]


def test_env_budget(monkeypatch):
    monkeypatch.setenv("EP_BUDGET", "123")
    assert default_budget() == 123
    monkeypatch.setenv("EP_BUDGET", "1e6")
    with pytest.raises(InvalidParameter):
        exact_vpack_cycles(MultiGraph.complete(3))
    monkeypatch.delenv("EP_BUDGET")
    assert default_budget() > 123


def test_greedy_subgraph_duality():
    det = triangles_detector()
    for seed in range(10):
        g = gnp(10, 0.4, seed)
        for mode in (Mode.VERTEX, Mode.EDGE):
            packing, cover = greedy_subgraph_ep(g, K3, mode)
            assert verify_packing(g, det, packing)
            assert verify_cover(g, det, cover)
            per = 3
            assert len(cover) <= per * len(packing)


def test_greedy_rejects_trivial_edge_pattern():
    with pytest.raises(InvalidParameter):
        greedy_subgraph_ep(MultiGraph.complete(3), MultiGraph(range(1), {}), Mode.EDGE)
