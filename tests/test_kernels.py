"""The cycle kernels against their reference implementations in helpers.

``reduce_low_degree``, ``shortest_cycle`` and ``enumerate_cycles`` must return
exactly what the per-step rebuild, the uncut per-edge BFS and the scan of
every rotation return: the same events, the same reduced graph (edge order
included) and cycles in canonical form.  A reduction seeded with the
neighbours of what was deleted from a reduced graph must equal the full one.
The generator is pinned the same way: ``SplitMix64`` to the published
splitmix64 outputs, ``below`` to one ``random()`` call per draw and ``gnp``
to ``helpers.ref_gnp``.
"""

import math

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    multigraphs,
    ref_canonical_cycle,
    ref_gnp,
    ref_reduce_low_degree,
    ref_shortest_cycle,
)

from eppack.cycles import ReductionTrace, reduce_low_degree
from eppack.gen import gnp
from eppack.graph import Cycle, Mode, MultiGraph
from eppack.iso import enumerate_cycles
from eppack.rng import _LANES, SplitMix64


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
    assert_reduction_matches_reference(g)


def assert_reduction_matches_reference(g):
    h, trace = reduce_low_degree(g)
    ref_h, ref_trace = ref_reduce_low_degree(g)
    assert trace == ref_trace
    assert h == ref_h
    assert list(h.edges.items()) == list(ref_h.edges.items())
    # the raw id lists too, which the cycle kernels read as ascending
    assert {v: dict(row) for v, row in h._adj.items()} == {
        v: dict(row) for v, row in ref_h._adj.items()}
    assert (h is g) == (ref_h is g)
    return h


def assert_seeded_reduction_is_exact(h, xs, mode):
    """h is fully reduced: reducing h less xs from the neighbours of xs must
    give what the full call gives, with the same fresh-id counter."""
    if mode is Mode.VERTEX:
        touched = {u for x in xs for u in h.neighbors(x)}
    else:
        touched = {v for e in xs for v in h.endpoints(e)}
    residue = h.delete(xs, mode)
    fresh = h.next_edge_id() + 5
    seeded, s_trace = reduce_low_degree(residue, seeds=touched, trace=ReductionTrace(fresh))
    full, f_trace = reduce_low_degree(residue, trace=ReductionTrace(fresh))
    assert s_trace == f_trace
    assert list(seeded.edges.items()) == list(full.edges.items())
    assert seeded.vertices == full.vertices
    assert {v: dict(row) for v, row in seeded._adj.items()} == {
        v: dict(row) for v, row in full._adj.items()}
    assert (seeded is residue) == (full is residue)


@settings(max_examples=300)
@given(st.one_of(multigraphs(min_n=4, max_n=10, min_pairs=10, max_pairs=30),
                multigraphs(min_n=8, max_n=14, min_pairs=14, max_pairs=30, simple=True)),
       st.sampled_from(list(Mode)), st.data())
def test_seeded_reduction_matches_the_full_call(g, mode, data):
    # as many pairs as vertices or more: the reduced graph keeps a cycle
    h = reduce_low_degree(g)[0]
    pool = sorted(h.elements(mode))
    xs = data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=4))
    assert_seeded_reduction_is_exact(h, xs, mode)


def test_seeded_reduction_matches_the_full_call_on_fixed_seeds():
    # each host's shortest cycle, as ep_cycles deletes it, and random sets
    rng = SplitMix64(31)
    for seed in range(20):
        h = reduce_low_degree(gnp(80, (2 + 0.1 * seed) / 80, seed))[0]
        cyc = h.shortest_cycle()
        for mode in Mode:
            pool = sorted(h.elements(mode))
            sets = [set(rng.sample(pool, min(len(pool), size))) for size in (1, 2, 6)]
            if cyc is not None:
                sets.append(cyc.vertex_set if mode is Mode.VERTEX else cyc.edge_set)
            for xs in sets:
                assert_seeded_reduction_is_exact(h, xs, mode)


@pytest.mark.parametrize("n", [100, 200, 400, 800])
def test_reduction_at_benchmark_sizes(n):
    # the hosts of the cycles-sparse benchmark: sparse gnp, c from 1.5 to 3
    for c in (1.5, 2.25, 3.0):
        h = assert_reduction_matches_reference(gnp(n, c / n, 7))
        cyc = h.shortest_cycle()
        if cyc is not None:
            assert_seeded_reduction_is_exact(h, cyc.vertex_set, Mode.VERTEX)
            assert_seeded_reduction_is_exact(h, cyc.edge_set, Mode.EDGE)


@settings(max_examples=400)
@given(st.one_of(multigraphs(), multigraphs(max_n=14, max_pairs=24, simple=True)))
@example(TRIANGLE)
@example(MultiGraph.petersen())
@example(MultiGraph.complete_bipartite(3, 3))
@example(MultiGraph([], {}))
def test_shortest_cycle_matches_reference(g):
    assert g.shortest_cycle() == ref_shortest_cycle(g)
    h = reduce_low_degree(g)[0]
    assert h.shortest_cycle() == ref_shortest_cycle(h)


def with_pendant_trees(length, depth):
    """A cycle on 0..length-1 whose vertices carry ``depth`` pendant vertices
    each, as leaves and short paths."""
    pairs = [(i, (i + 1) % length) for i in range(length)]
    fresh = length
    for i in range(length):
        tip = i
        for j in range(depth):
            pairs.append((tip if j % 2 == 0 else i, fresh))
            tip, fresh = fresh, fresh + 1
    return MultiGraph.from_edges(range(fresh), pairs)


def with_chords(g, pairs):
    """g plus one edge per pair, numbered after g's edges."""
    return MultiGraph.from_edges(g.vertices, list(g.edges.values()) + pairs)


def grid(k):
    pairs = [(i * k + j, i * k + j + 1) for i in range(k) for j in range(k - 1)]
    pairs += [(i * k + j, (i + 1) * k + j) for i in range(k - 1) for j in range(k)]
    return MultiGraph.from_edges(range(k * k), pairs)


def test_shortest_cycle_at_scale():
    # where the per-edge reference is too slow, the answer is known: the
    # long cycle in its canonical direction (its edges come first, so edge
    # i joins i and i + 1), and the grid's first square
    n = 2000
    assert MultiGraph.cycle_graph(n).shortest_cycle() == Cycle(tuple(range(n)), tuple(range(n)))
    for length in (1000, 10000):  # the girth pass sees only the cycle
        assert with_pendant_trees(length, 1).shortest_cycle() == Cycle(
            tuple(range(length)), tuple(range(length))
        )
    # more edges than vertices: a chord across the cycle, and one that pulls
    # two pendant paths into the 2-core
    g = with_pendant_trees(4000, 3)
    g = with_chords(g, [(0, 2000), (4000 + 3 * 500 + 2, g.n - 1)])
    core = g.induced(g.core_degrees())
    assert g.m > g.n and core.n < g.n
    assert g.shortest_cycle() == core.shortest_cycle()
    g = grid(40)
    square = (0, 1, 41, 40)
    steps = zip(square, square[1:] + square[:1])
    assert g.shortest_cycle() == Cycle(square, tuple(g.edges_between(a, b)[0] for a, b in steps))
    for g in [with_pendant_trees(100, 3), grid(6), MultiGraph.complete(12)]:
        assert g.shortest_cycle() == ref_shortest_cycle(g)
    for length in (3, 5, 8, 13, 21):
        for depth in (1, 2, 3):
            g = with_pendant_trees(length, depth)
            last = g.n - 1
            chords = ([(0, length // 2)], [(length, last)], [(1, length + 1), (last - 1, last)])
            for h in (with_chords(g, pairs) for pairs in chords):
                assert h.shortest_cycle() == ref_shortest_cycle(h)
    for seed in range(30):  # girths from 3 to 11, and some forests
        n = 20 + 20 * (seed % 3)
        for g in (gnp(n, (1 + 0.05 * seed) / n, seed), gnp(60, (1 + 0.05 * seed) / 60, seed)):
            assert g.shortest_cycle() == ref_shortest_cycle(g)


@settings(max_examples=300)
@given(multigraphs(max_n=8, max_pairs=12))
@example(TRIANGLE)
@example(MultiGraph.theta(3))
@example(MultiGraph.complete(5))
def test_enumerated_cycles_are_canonical(g):
    for c in enumerate_cycles(g):
        assert c == ref_canonical_cycle(c.vertices, c.edges)


def test_splitmix64_known_answers():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_randrange_bounds():
    for n in (0, -1, 2**64 + 1):
        with pytest.raises(ValueError):
            SplitMix64(5).randrange(n)
    assert SplitMix64(5).randrange(2**64) == SplitMix64(5).next_u64()


def _draw_by_draw(rng, count, p):
    return [i for i in range(count) if rng.random() < p]


# counts on both sides of chunk edges
@pytest.mark.parametrize(
    "count", [0, 1, _LANES - 1, _LANES, _LANES + 1, 4095, 4096, 4097, 2 * 4096 + 1]
)
def test_below_matches_draw_by_draw(count):
    seeded = SplitMix64(count)
    ps = [0.0, 1.0, 1e-12, 1 - 2**-53] + [seeded.random() for _ in range(3)]
    # a draw's own value is not below itself, and the next float up is
    ps += [SplitMix64(count).random(), math.nextafter(SplitMix64(count).random(), 1.0)]
    for p in ps:
        fast, ref = SplitMix64(count), SplitMix64(count)
        assert fast.below(count, p) == _draw_by_draw(ref, count, p)
        assert fast.next_u64() == ref.next_u64()


def test_below_rejects_p_outside_unit_interval():
    for p in (-1e-300, math.nextafter(1.0, 2.0), float("nan")):
        with pytest.raises(ValueError):
            SplitMix64(1).below(10, p)


def test_gnp_matches_draw_by_draw():
    # 45 and 91 vertices have 990 and 4095 pairs, 46 and 92 have 1035 and 4186
    cases = [(n, p, seed) for n in (0, 1, 2, 45, 46, 91, 92, 93, 200)
             for p, seed in ((0.0, 1), (1.0, 2), (0.05, 3), (0.5, 4), (3 / max(n, 3), 5))]
    for n, p, seed in cases + [(800, 3 / 800, 6)]:
        g, ref = gnp(n, p, seed), ref_gnp(n, p, seed)
        assert g.vertices == ref.vertices
        assert list(g.edges.items()) == list(ref.edges.items())
