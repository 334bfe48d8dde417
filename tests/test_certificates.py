import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import multigraphs, random_multigraph, ref_theta2_find

from eppack.certificates import (
    CoverCertificate,
    EPOutcome,
    PackingCertificate,
    PatternWitness,
    QualityReport,
    builtin_detectors,
    certificate_from_dict,
    cycles_detector,
    fixed_subgraph_detector,
    theta_detector,
    triangles_detector,
    verify_cover,
    verify_packing,
)
from eppack.cycles import ep_cycles
from eppack.errors import BudgetExceeded, InvalidParameter
from eppack.gen import gnp
from eppack.graph import Mode, MultiGraph
from eppack.oracles import exact_vcover_cycles
from eppack.rng import SplitMix64


def test_witness_subgraph_and_elements():
    g = MultiGraph.complete(4)
    w = PatternWitness(frozenset({0, 1}), frozenset(g.edges_between(0, 1)))
    sub = w.subgraph(g)
    assert sub.n == 2 and sub.m == 1
    assert w.elements(Mode.VERTEX) == w.vertices
    assert w.elements(Mode.EDGE) == w.edges


def test_certificate_round_trip():
    w = PatternWitness(frozenset({0, 1, 2}), frozenset({0, 1, 2}))
    p = PackingCertificate(Mode.VERTEX, (w,))
    d = p.to_dict(bound_claimed=1, hypotheses_held=True)
    assert d["kind"] == "packing" and d["bound_claimed"] == 1
    assert certificate_from_dict(d) == p

    c = CoverCertificate(Mode.EDGE, frozenset({3, 4}))
    assert certificate_from_dict(c.to_dict()) == c

    with pytest.raises(InvalidParameter):
        certificate_from_dict({"kind": "nonsense"})


def test_outcome_exactly_one_certificate():
    report = QualityReport(1, True)
    cover = CoverCertificate(Mode.VERTEX, frozenset())
    with pytest.raises(InvalidParameter):
        EPOutcome(report)
    with pytest.raises(InvalidParameter):
        EPOutcome(
            report,
            packing=PackingCertificate(Mode.VERTEX, ()),
            cover=cover,
        )
    assert EPOutcome(report, cover=cover).certificate is cover


def test_cycles_detector():
    det = cycles_detector()
    assert det.find(MultiGraph.path_graph(5)) is None
    w = det.find(MultiGraph.complete(4))
    assert w is not None and len(w.vertices) == 3
    ws = det.enumerate(MultiGraph.complete(4))
    assert len(ws) == 7  # four triangles and three 4-cycles


def test_minimal_witness_shrinks():
    det = cycles_detector()
    g = MultiGraph.from_edges(range(6), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
    w = det.minimal(g)
    assert len(w.vertices) == 3


@pytest.mark.parametrize("t, seed, found, kept", [(3, 0, 8, 7), (4, 2, 10, 9)])
def test_minimal_theta_witness(t, seed, found, kept):
    # find's witness has an edge to spare, so the shrinking step runs
    det, g = theta_detector(t), gnp(8, 0.4, seed)
    assert len(det.find(g).edges) == found
    w = det.minimal(g)
    assert len(w.edges) == kept
    sub = w.subgraph(g)
    assert det.find(sub) is not None
    assert all(det.find(sub.delete_edges([eid])) is None for eid in w.edges)
    assert w.vertices == {v for eid in w.edges for v in g.endpoints(eid)}


def test_theta_detector_small_t():
    det2 = theta_detector(2)
    assert det2.find(MultiGraph.cycle_graph(4)) is not None
    assert det2.find(MultiGraph.path_graph(4)) is None

    det3 = theta_detector(3)
    assert det3.find(MultiGraph.theta(3)) is not None
    assert det3.find(MultiGraph.complete(4)) is not None
    assert det3.find(MultiGraph.cycle_graph(6)) is None

    with pytest.raises(InvalidParameter):
        theta_detector(1)


@settings(max_examples=200)
@given(multigraphs())
def test_theta2_witness_is_the_old_one(g):
    assert theta_detector(2).find(g) == ref_theta2_find(g)


def test_theta2_witness_is_the_old_one_on_fixed_seeds():
    # a shortest cycle is chordless, so the old split gave back its edges
    find = theta_detector(2).find
    rng = SplitMix64(20)
    for _ in range(300):
        g = random_multigraph(rng)
        assert find(g) == ref_theta2_find(g)
    for seed in range(60):
        g = gnp(30, (1 + seed % 6) / 30, seed)
        assert find(g) == ref_theta2_find(g)


def test_theta_budget():
    # 2^18 vertex subsets are more than ENUMERATION_CAP
    det = theta_detector(3)
    with pytest.raises(BudgetExceeded):
        det.find(MultiGraph.cycle_graph(18))


def test_theta_detector_answers_forests_of_any_size():
    # a forest has no theta_t minor, so no subset search is needed
    forest = MultiGraph.from_edges(range(60), [(i, i // 2) for i in range(1, 60)])
    for t in (3, 4):
        det = theta_detector(t)
        assert det.find(MultiGraph.path_graph(18)) is None
        assert det.find(forest) is None


def test_fixed_subgraph_detector():
    det = fixed_subgraph_detector(MultiGraph.complete(3), "k3")
    assert det.find(MultiGraph.complete(4)) is not None
    assert det.find(MultiGraph.cycle_graph(4)) is None
    assert det.delta_tilde_bound == 2


def test_builtin_detectors_present():
    dets = builtin_detectors()
    for name in ("cycles", "triangles", "theta_2", "theta_3", "k4", "path3"):
        assert name in dets


def test_verify_packing_catches_overlap():
    g = MultiGraph.complete(4)
    det = triangles_detector()
    tri = lambda vs: PatternWitness(
        frozenset(vs),
        frozenset(
            eid
            for eid in g.edges
            if set(g.endpoints(eid)) <= set(vs)
        ),
    )
    good = PackingCertificate(Mode.VERTEX, (tri([0, 1, 2]),))
    assert verify_packing(g, det, good)

    overlapping = PackingCertificate(Mode.VERTEX, (tri([0, 1, 2]), tri([1, 2, 3])))
    check = verify_packing(g, det, overlapping)
    assert not check
    assert check.violations[0][0] == "members-not-disjoint"

    # same two triangles are edge-disjoint except shared edge {1,2}
    check = verify_packing(g, det, PackingCertificate(Mode.EDGE, (tri([0, 1, 2]), tri([1, 2, 3]))))
    assert not check


def test_verify_packing_catches_non_witness():
    g = MultiGraph.complete(4)
    det = triangles_detector()
    path = PatternWitness(frozenset({0, 1}), frozenset(g.edges_between(0, 1)))
    check = verify_packing(g, det, PackingCertificate(Mode.VERTEX, (path,)))
    assert not check
    assert check.violations[0][0] == "member-not-a-witness"


def test_verify_packing_catches_stray_ids():
    g = MultiGraph.complete(3)
    det = triangles_detector()
    w = PatternWitness(frozenset({0, 1, 99}), frozenset())
    assert not verify_packing(g, det, PackingCertificate(Mode.VERTEX, (w,)))


def test_verify_packing_catches_an_edge_without_its_endpoint():
    g = MultiGraph.complete(3)
    eid = next(e for e, uv in g.edges.items() if set(uv) == {1, 2})
    w = PatternWitness(frozenset({0, 1}), frozenset({eid}))
    check = verify_packing(g, cycles_detector(), PackingCertificate(Mode.VERTEX, (w,)))
    assert check.violations == [("member-edge-endpoint-missing", 0, eid)]


def test_verify_cover():
    g = MultiGraph.complete(4)
    det = cycles_detector()
    assert verify_cover(g, det, CoverCertificate(Mode.VERTEX, frozenset({0, 1})))
    assert not verify_cover(g, det, CoverCertificate(Mode.VERTEX, frozenset({0})))
    assert not verify_cover(g, det, CoverCertificate(Mode.VERTEX, frozenset({77})))
    assert verify_cover(
        MultiGraph.path_graph(5), det, CoverCertificate(Mode.VERTEX, frozenset())
    )


def _violation(check):
    """The first violation's name, or None; a verdict is true iff it has none."""
    assert bool(check) == check.ok == (not check.violations)
    return check.violations[0][0] if check.violations else None


TWO_TRIANGLES = MultiGraph.from_edges(
    range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
)


@settings(max_examples=200)
@given(multigraphs(max_n=8, max_pairs=8), st.sampled_from(list(Mode)))
@example(TWO_TRIANGLES, Mode.VERTEX)
@example(MultiGraph.theta(4), Mode.EDGE)
def test_verifiers_reject_mutated_certificates(g, mode):
    det = cycles_detector()
    foreign = max([*g.vertices, *g.edges]) + 1

    cover = exact_vcover_cycles(g).witness
    assert _violation(verify_cover(g, det, cover)) is None
    for x in cover.elements:  # a minimum cover needs every element
        dropped = CoverCertificate(cover.mode, cover.elements - {x})
        assert _violation(verify_cover(g, det, dropped)) == "witness-survives-cover"
    stray = CoverCertificate(mode, frozenset({foreign}))
    assert _violation(verify_cover(g, det, stray)) == "cover-elements-outside-host"

    packing = ep_cycles(g, 2, mode).packing
    if packing is None:
        return
    assert _violation(verify_packing(g, det, packing)) is None
    a, b = packing.members

    def mutated(*members):
        return verify_packing(g, det, PackingCertificate(mode, members))

    wa = PatternWitness(a.vertices | {foreign}, a.edges)
    assert _violation(mutated(wa, b)) == "member-vertices-outside-host"
    wa = PatternWitness(a.vertices, a.edges | {foreign})
    assert _violation(mutated(wa, b)) == "member-edges-outside-host"
    x = min(a.elements(mode))
    if mode is Mode.VERTEX:
        wb = PatternWitness(b.vertices | {x}, b.edges)
    else:
        wb = PatternWitness(b.vertices | set(g.endpoints(x)), b.edges | {x})
    assert _violation(mutated(a, wb)) == "members-not-disjoint"
