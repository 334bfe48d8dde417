import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    multigraphs,
    ref_balanced_separation,
    ref_disconnected_pattern_ep,
    ref_exact_elimination_td,
    ref_min_fill_order,
    ref_subset_dp_td,
    ref_subtree_vertices,
    ref_validate_td,
)

import eppack
from eppack.certificates import builtin_detectors, cycles_detector, verify_cover, verify_packing
from eppack.decomp import (
    EXACT_TD_MAX_N,
    Ceiling,
    TreeDecomposition,
    balanced_separation,
    cover_connected_bounded_tw,
    disconnected_pattern_ep,
    exact_elimination_td,
    min_fill_order,
    min_fill_td,
    to_nice,
    validate_td,
)
from eppack.errors import (
    BudgetExceeded,
    CeilingViolated,
    InvalidDecomposition,
    OracleFailure,
)
from eppack.gen import gnp
from eppack.graph import MultiGraph
from eppack.rng import SplitMix64


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

    foreign_vertex = TreeDecomposition(
        tree, {0: frozenset({0, 1, 3}), 1: frozenset({1, 2, 3, 7})}
    )
    check = validate_td(g, foreign_vertex)
    assert not check and check.violations == [("bag-vertex-not-in-host", [7])]

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


@settings(max_examples=300)
@given(st.one_of(multigraphs(max_n=11, min_n=0),
                 multigraphs(max_n=11, max_pairs=30, simple=True)))
@example(MultiGraph([], {}))
@example(MultiGraph([3, 17, 40], {}))
@example(MultiGraph.petersen())
def test_exact_td_matches_reference(g):
    # disconnected hosts, isolated vertices and scattered ids included
    td, ref = exact_elimination_td(g), ref_exact_elimination_td(g)
    assert td.bags == ref.bags
    assert list(td.tree.edges.items()) == list(ref.tree.edges.items())
    assert td.tree == ref.tree


def _scrambled(g, seed):
    """g with scattered vertex ids in shuffled order, scattered edge ids and
    every third pair doubled."""
    rng = SplitMix64(seed)
    ids = rng.sample(range(3 * g.n), g.n)
    relabel = dict(zip(sorted(g.vertices), ids))
    pairs = [(relabel[u], relabel[v]) for u, v in sorted(g.underlying_pairs())]
    pairs += pairs[::3]
    return MultiGraph(ids, dict(zip(rng.sample(range(3 * len(pairs) + 1), len(pairs)), pairs)))


def _disjoint(*graphs, isolated=0):
    """The disjoint union of graphs, relabelled 0.., plus isolated vertices."""
    pairs, n = [], 0
    for h in graphs:
        index = {v: n + i for i, v in enumerate(sorted(h.vertices))}
        pairs += [(index[u], index[v]) for u, v in h.edges.values()]
        n += h.n
    return MultiGraph.from_edges(range(n + isolated), pairs)


@pytest.mark.parametrize("g", [
    pytest.param(g, id=name) for name, g in [
        ("gnp-12-0.1", gnp(12, 0.1, 1)), ("gnp-12-0.6", gnp(12, 0.6, 2)),
        ("gnp-13-0.3", gnp(13, 0.3, 3)), ("gnp-13-0.8", gnp(13, 0.8, 4)),
        ("gnp-14-0.2", gnp(14, 0.2, 5)), ("gnp-14-0.5", gnp(14, 0.5, 6)),
        ("gnp-15-0.15", gnp(15, 0.15, 7)), ("gnp-15-0.35", gnp(15, 0.35, 8)),
        ("gnp-15-0.8", gnp(15, 0.8, 9)),
        ("gnp7+c5+3", _disjoint(gnp(7, 0.6, 10), MultiGraph.cycle_graph(5), isolated=3)),
        ("petersen+gnp4+1", _disjoint(MultiGraph.petersen(), gnp(4, 0.9, 11), isolated=1)),
        ("scrambled-14-0.3", _scrambled(gnp(14, 0.3, 12), 13)),
        ("scrambled-15-0.5", _scrambled(gnp(15, 0.5, 14), 15)),
        ("complete-15", MultiGraph.complete(15)),
        ("cycle-15", MultiGraph.cycle_graph(15)),
        # the only two of 3,000 seeded gnp hosts (n 4-13) on which a stored
        # bound one too high changes the order: a set bounded under one
        # limit is asked for again under a higher one
        ("gnp-13-0.508", gnp(13, 0.508, 1529)), ("gnp-12-0.276", gnp(12, 0.276, 2738)),
    ]
])
def test_exact_td_matches_subset_dp_up_to_size_limit(g):
    # the frozen bottom-up DP at n = 12-15, beyond the reach of the BFS reference
    td, ref = exact_elimination_td(g), ref_subset_dp_td(g)
    assert td.bags == ref.bags
    assert list(td.tree.edges.items()) == list(ref.tree.edges.items())


def test_exact_td_size_limit():
    g = gnp(EXACT_TD_MAX_N, 0.3, 1)
    td = exact_elimination_td(g)
    assert validate_td(g, td)
    assert td.width() <= min_fill_td(g).width()
    with pytest.raises(InvalidDecomposition):
        exact_elimination_td(MultiGraph.path_graph(EXACT_TD_MAX_N + 1))


@settings(max_examples=300)
@given(st.one_of(multigraphs(max_n=12, min_n=0),
                 multigraphs(max_n=16, max_pairs=40, simple=True)))
@example(MultiGraph.path_graph(30))
@example(MultiGraph.petersen())
@example(gnp(40, 0.15, 3))
def test_min_fill_order_matches_reference(g):
    assert min_fill_order(g) == ref_min_fill_order(g)


@settings(max_examples=300)
@given(multigraphs(max_n=10, min_n=0), st.data())
def test_validate_td_matches_reference(g, data):
    # toggling host vertices, or one the host lacks, in bags breaks each
    # condition in turn
    td = min_fill_td(g)
    bags = dict(td.bags)
    verts = sorted(g.vertices)
    toggles = verts + [max(verts, default=-1) + 1]
    for _ in range(data.draw(st.integers(0, 3)) if verts else 0):
        t = data.draw(st.sampled_from(sorted(bags)))
        bags[t] = bags[t] ^ {data.draw(st.sampled_from(toggles))}
    mutated = TreeDecomposition(td.tree, bags)
    assert validate_td(g, mutated) == ref_validate_td(g, mutated)


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
        assert ntd.to_td().width() == td.width()
        assert validate_td(g, ntd.to_td())
        assert ntd.nodes[ntd.root].bag == frozenset()


AUDIT_UNDER_O = """
import sys
from dataclasses import replace
from eppack.decomp import min_fill_td, to_nice
from eppack.errors import InvalidDecomposition
from eppack.graph import MultiGraph

assert False, "asserts must be off"
# a spider: its decomposition branches, so the nice form has a join
g = MultiGraph.from_edges(range(7), [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
corruptions = {
    "introduce": lambda node: replace(node, bag=node.bag - {node.vertex}),
    "forget": lambda node: replace(node, vertex=-1),
    "join": lambda node: replace(node, bag=frozenset({-1})),
    "base": lambda node: replace(node, bag=frozenset({-1})),
}
for kind, corrupt in corruptions.items():
    ntd = to_nice(g, min_fill_td(g))
    t = min(t for t, node in ntd.nodes.items() if node.kind == kind)
    ntd.nodes[t] = corrupt(ntd.nodes[t])
    try:
        ntd.audit()
    except InvalidDecomposition as exc:
        print(kind, exc)
    else:
        sys.exit(f"{kind}: corruption passed the audit")
"""


def test_audit_raises_typed_errors_under_O():
    src = str(Path(eppack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", AUDIT_UNDER_O], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["introduce", "forget", "join", "base"]
    assert all("nice node" in line for line in lines)


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


def test_balanced_separation_at_a_join_node():
    # on this host the first postorder node past 2k/3 is a join whose two
    # children tie at one cycle each, so the smaller id must be chosen
    det = cycles_detector()
    g = gnp(12, 0.3, 373)
    ntd = to_nice(g, min_fill_td(g))
    k = det.exact_vpack(g)
    sub_vs = ref_subtree_vertices(ntd)

    def pack_below(t):
        return det.exact_vpack(g.induced(sub_vs[t] - ntd.nodes[t].bag))

    t = next(t for t in ntd.postorder() if 3 * pack_below(t) > 2 * k)
    node = ntd.nodes[t]
    assert node.kind == "join"
    u = max(node.children, key=lambda c: (pack_below(c), -c))
    assert u == min(node.children) and pack_below(u) == pack_below(max(node.children))
    sep = balanced_separation(g, ntd, det.exact_vpack)
    assert sep.a == sub_vs[u]
    assert sep.b == g.vertices - (sub_vs[u] - ntd.nodes[u].bag)
    assert sep.validate(g)
    for side in (sep.a - sep.b, sep.b - sep.a):
        assert 3 * det.exact_vpack(g.induced(side)) <= 2 * k


def _cycle_rank(h):
    return h.m - h.n + len(h.components())


def _same_separation(g, ntd, oracle):
    """The reference's (a, b), with the oracle asked first for g and then
    only at forget nodes, in postorder, whose vertex has at least two edges
    into the node's set below(t) and whose set is not all of g: base,
    introduce and join nodes never ask, and g is asked for once.  The
    reference asks at least as often."""
    asked, ref_asked = [], []

    def counting(calls):
        def pack(h):
            calls.append(h.vertices)
            return oracle(h)

        return pack

    sep = balanced_separation(g, ntd, counting(asked))
    ref = ref_balanced_separation(g, ntd, counting(ref_asked))
    assert (sep.a, sep.b) == (ref.a, ref.b)
    assert len(asked) <= len(ref_asked)
    sub_vs = ref_subtree_vertices(ntd)
    forgets = []
    for t in ntd.postorder():
        node = ntd.nodes[t]
        below = sub_vs[t] - node.bag
        if (node.kind == "forget" and below != g.vertices
                and g.induced(below).degree(node.vertex) >= 2):
            forgets.append(below)
    assert asked[0] == g.vertices and asked.count(g.vertices) == 1
    assert asked[1:] == forgets[: len(asked) - 1]


def test_balanced_separation_matches_reference_on_fixed_seeds():
    det = cycles_detector()
    for seed in range(45):
        g = gnp(6 + seed % 9, 0.2 + 0.01 * (seed % 20), seed)
        for td in (min_fill_td(g), exact_elimination_td(g)):
            ntd = to_nice(g, td)
            _same_separation(g, ntd, det.exact_vpack)
            _same_separation(g, ntd, _cycle_rank)


@settings(max_examples=150, deadline=None)
@given(multigraphs(max_n=10, max_pairs=14))
@example(MultiGraph.theta(3))
@example(MultiGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
def test_balanced_separation_matches_reference(g):
    ntd = to_nice(g, min_fill_td(g))
    _same_separation(g, ntd, cycles_detector().exact_vpack)
    _same_separation(g, ntd, _cycle_rank)


def test_balanced_separation_wraps_only_package_errors():
    g = MultiGraph.cycle_graph(4)
    ntd = to_nice(g, min_fill_td(g))

    def out_of_budget(h):
        raise BudgetExceeded("search exceeded 5 nodes")

    def broken(h):
        raise TypeError("a bug in the oracle")

    with pytest.raises(OracleFailure, match="exceeded 5 nodes") as info:
        balanced_separation(g, ntd, out_of_budget)
    assert isinstance(info.value.__cause__, BudgetExceeded)
    with pytest.raises(TypeError, match="a bug in the oracle"):
        balanced_separation(g, ntd, broken)


def test_deep_trees_need_no_recursion():
    # a path ending in a triangle: its decomposition is a path of about n
    # bags, so a walk that recursed once per level would overflow the stack
    n = 1500
    g = MultiGraph.from_edges(
        range(n), [(i, i + 1) for i in range(n - 1)] + [(n - 3, n - 1)]
    )
    td = min_fill_td(g)
    ntd = to_nice(g, td)
    assert ntd.to_td().width() == td.width() == 2
    post = ntd.postorder()
    pos = {t: i for i, t in enumerate(post)}
    assert len(pos) == len(ntd.nodes) and post[-1] == ntd.root
    assert all(pos[c] < pos[t] for t, node in ntd.nodes.items() for c in node.children)

    sep = balanced_separation(g, ntd, _cycle_rank)
    assert sep.validate(g) and sep.order <= td.width() + 1
    for side in (sep.a - sep.b, sep.b - sep.a):
        assert 3 * _cycle_rank(g.induced(side)) <= 2


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
        cover_connected_bounded_tw(g, det, Ceiling(lambda k: k), min_fill_td(g))


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


def test_disconnected_pattern_ep_matches_reference():
    # each distinct trace reaches gallai and rs_selection once, where the
    # reference hands them one copy per witness: the same packings, covers
    # and reports
    dets = builtin_detectors()
    families = (
        [dets["triangles"]],
        [dets["triangles"], dets["cycles"]],
        [dets["cycles"], dets["k3"]],
    )
    chain = MultiGraph.from_edges(  # six triangles in a row
        range(18),
        [(a + i, a + j) for a in range(0, 18, 3) for i, j in ((0, 1), (1, 2), (0, 2))]
        + [(a + 2, a + 3) for a in range(0, 15, 3)],
    )
    packings = 0
    for g in [gnp(6 + seed % 5, 0.3 + 0.02 * (seed % 9), seed) for seed in range(20)] + [chain]:
        td = min_fill_td(g)
        for fams in families:
            for k in (1, 2, 3):
                out = disconnected_pattern_ep(g, td, fams, k)
                assert out == ref_disconnected_pattern_ep(g, td, fams, k)
                packings += out.packing is not None
    assert packings >= 20


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

