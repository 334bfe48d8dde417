import math

import pytest

from helpers import random_multigraph, replay

from eppack import cycles
from eppack.certificates import cycles_detector, verify_cover, verify_packing
from eppack.cycles import Suppress, ep_cycles, reduce_low_degree, short_cycle_threshold
from eppack.errors import InvalidParameter
from eppack.gen import gnp
from eppack.graph import Mode, MultiGraph
from eppack.rng import SplitMix64


def test_threshold():
    assert short_cycle_threshold(3, 4.0) == math.ceil(4.0 * math.log2(3))
    assert short_cycle_threshold(2, 1.0) == 1


def test_reduce_keeps_parallel_pair_vertices():
    g = MultiGraph.from_edges(range(3), [(0, 1), (1, 2), (1, 2)])
    h, trace = reduce_low_degree(g)
    assert len(h.shortest_cycle()) == 2
    assert replay(trace, g) == h


def test_reduce_to_empty_on_forest():
    g = MultiGraph.path_graph(6)
    h, trace = reduce_low_degree(g)
    assert h.n == 0
    assert replay(trace, g) == h


def test_expand_cycle_round_trip():
    # hexagon reduces heavily; its only cycle must expand back intact
    g = MultiGraph.cycle_graph(6)
    h, trace = reduce_low_degree(g)
    c = h.shortest_cycle()
    exp = trace.expand_cycle(c)
    assert exp.vertex_set == g.vertices
    assert exp.edge_set == frozenset(g.edges)


def test_ep_cycles_packing_and_cover():
    det = cycles_detector()
    g = MultiGraph.from_edges(
        range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    out = ep_cycles(g, 2, Mode.VERTEX)
    assert out.packing is not None and len(out.packing) == 2
    assert verify_packing(g, det, out.packing)

    out = ep_cycles(g, 3, Mode.VERTEX)
    assert out.cover is not None
    assert verify_cover(g, det, out.cover)
    thr = short_cycle_threshold(9, 4.0)
    assert out.report.hypotheses_held
    assert len(out.cover) <= thr * 3


def test_ep_cycles_forest_gives_empty_cover():
    out = ep_cycles(MultiGraph.path_graph(8), 2, Mode.VERTEX)
    assert out.cover is not None and len(out.cover) == 0


def test_ep_cycles_edge_mode():
    det = cycles_detector()
    theta = MultiGraph.theta(4)
    out = ep_cycles(theta, 2, Mode.EDGE)
    assert out.packing is not None
    assert verify_packing(theta, det, out.packing)


def test_ep_cycles_randomized():
    det = cycles_detector()
    for seed in range(30):
        g = gnp(25, 0.12, seed)
        for k in (1, 2, 3):
            out = ep_cycles(g, k, Mode.VERTEX)
            if out.packing is not None:
                assert verify_packing(g, det, out.packing)
            else:
                assert verify_cover(g, det, out.cover)
                if out.report.hypotheses_held:
                    thr = short_cycle_threshold(3 * k, 4.0)
                    assert len(out.cover) <= thr * k


@pytest.mark.parametrize("mode", list(Mode))
def test_ep_cycles_cover_within_its_claims(mode):
    # the long cycle reduces to a 2-cycle: each cover round takes one element
    # per element of the reduced cycle, not the whole expanded cycle, and the
    # claims follow the reduced length that the events report
    det = cycles_detector()
    g = MultiGraph.cycle_graph(100)
    for k in range(1, 7):
        out = ep_cycles(g, k, mode)
        assert out.report.hypotheses_held
        assert not [ev for ev in out.report.events if ev[0] == "high-girth"]
        if k > 1:
            assert verify_cover(g, det, out.cover)
            assert len(out.cover) == 2 <= out.report.bound_claimed
    # with c = 0.5 the threshold is 1, so even the 2-cycle is a long one
    out = ep_cycles(g, 1, mode, c=0.5)
    assert not out.report.hypotheses_held
    assert out.report.events == (("high-girth", {"girth": 2, "threshold": 1}),)


@pytest.mark.parametrize("mode", list(Mode))
def test_every_round_is_reduced_with_fresh_ids(monkeypatch, mode):
    # ep_cycles reduces g once and then only around each deleted cycle: every
    # round's graph must still be fully reduced, and no fresh id may repeat
    # or reuse one of g's; each round appends its events to one shared trace
    rounds = []

    def recording(h, **kw):
        before = len(kw["trace"].events)
        out = reduce_low_degree(h, **kw)
        assert out[1] is kw["trace"]
        rounds.append((out[0], out[1].events[before:]))
        return out

    monkeypatch.setattr(cycles, "reduce_low_degree", recording)
    for seed in range(12):
        g = gnp(120, (2 + 0.1 * seed) / 120, seed)
        rounds.clear()
        ep_cycles(g, 8, mode)
        assert len(rounds) > 1
        fresh = [ev.replacement for _, evs in rounds for ev in evs if isinstance(ev, Suppress)]
        assert len(set(fresh)) == len(fresh)
        assert all(eid >= g.next_edge_id() for eid in fresh)
        for h, _ in rounds:
            assert not reduce_low_degree(h)[1].events


@pytest.mark.parametrize("mode", list(Mode))
def test_ep_cycles_on_multigraphs(mode):
    # parallel edges, 2-cycles and non-contiguous ids, which gnp hosts lack
    det = cycles_detector()
    rng = SplitMix64(23)
    for _ in range(600):
        g = random_multigraph(rng)
        for k in range(1, 6):
            out = ep_cycles(g, k, mode)
            if out.packing is not None:
                assert len(out.packing) == k
                assert verify_packing(g, det, out.packing)
            else:
                assert verify_cover(g, det, out.cover)
                assert len(out.cover) <= out.report.bound_claimed


def test_ep_cycles_rejects_bad_params():
    with pytest.raises(InvalidParameter):
        ep_cycles(MultiGraph.complete(3), 0, Mode.VERTEX)
    with pytest.raises(InvalidParameter):
        ep_cycles(MultiGraph.complete(3), 1, Mode.VERTEX, c=0)
