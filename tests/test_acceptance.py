"""Acceptance suite: one criterion per test, one printed verdict line each.

Every criterion is checked against independent references (brute force
enumeration, closed forms, or mechanical certificate verification), never
against the code path under test.
"""

import itertools
import math

import networkx as nx

from helpers import bf_ecover_cycles, bf_min_hitting, _max_disjoint, from_networkx

from eppack import (
    Ceiling,
    Mode,
    MultiGraph,
    balanced_separation,
    cover_connected_bounded_tw,
    cycles_detector,
    ep_cycles,
    exact_cover_subgraph,
    exact_ecover_cycles,
    exact_elimination_td,
    exact_epack_cycles,
    exact_pack_subgraph,
    exact_vcover_cycles,
    exact_vpack_cycles,
    gallai,
    greedy_subgraph_ep,
    inductive_edge_cover,
    min_fill_td,
    route_avoiding,
    rs_selection,
    short_cycle_threshold,
    thicken,
    to_nice,
    verify_cover,
    verify_packing,
    verify_subdivision_model,
)
from eppack.bench import fuzz_jones, fuzz_tuza
from eppack.errors import CeilingViolated
from eppack.gen import gnp, random_subtree_family, random_tree
from eppack import io as eio
from eppack.rng import SplitMix64
from eppack.treepart import bfs_layer_tp, tp_width

K3 = MultiGraph.complete(3)


def _verdict(num, name, ok, detail=""):
    tag = "pass" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {tag}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


def _atlas_graphs():
    return [
        from_networkx(a) for a in nx.graph_atlas_g()[1:] if a.number_of_nodes()
    ]


def test_criterion_01_duality_inequality():
    bad = 0
    hosts = _atlas_graphs()
    rng = SplitMix64(101)
    for _ in range(1000):
        n = rng.randint(3, 12)
        hosts.append(gnp(n, 0.2 + 0.3 * rng.random(), rng.next_u64()))
    for g in hosts:
        if exact_vpack_cycles(g).value > exact_vcover_cycles(g).value:
            bad += 1
        if exact_epack_cycles(g).value > exact_ecover_cycles(g).value:
            bad += 1
        tp = exact_pack_subgraph(g, K3, Mode.EDGE).value
        tc = exact_cover_subgraph(g, K3, Mode.EDGE).value
        if tp > tc:
            bad += 1
    _verdict(
        1, "duality inequality", bad == 0, f"{len(hosts)} hosts, {bad} violations"
    )


def test_criterion_02_exact_anchors():
    checks = []
    k4, k5 = MultiGraph.complete(4), MultiGraph.complete(5)
    pet = MultiGraph.petersen()
    checks.append(exact_vpack_cycles(k4).value == 1)
    checks.append(exact_vcover_cycles(k4).value == 2)
    checks.append(exact_vpack_cycles(k5).value == 1)
    checks.append(exact_vcover_cycles(k5).value == 3)
    checks.append(exact_vpack_cycles(pet).value == 2)
    checks.append(exact_vcover_cycles(pet).value == 3)
    checks.append(exact_epack_cycles(k5).value == 3)
    checks.append(exact_pack_subgraph(k4, K3, Mode.EDGE).value == 1)
    checks.append(exact_cover_subgraph(k4, K3, Mode.EDGE).value == 2)

    # closed form m - n + c against subset enumeration, small edge counts,
    # parallel edges included
    rng = SplitMix64(202)
    hosts = [g for g in _atlas_graphs() if g.m <= 12][:300]
    for _ in range(120):
        n = rng.randint(2, 6)
        m = rng.randint(0, 12)
        pairs = []
        while len(pairs) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                pairs.append((u, v))
        hosts.append(MultiGraph.from_edges(range(n), pairs))
    closed_ok = all(
        exact_ecover_cycles(g).value == bf_ecover_cycles(g) for g in hosts
    )
    checks.append(closed_ok)
    _verdict(2, "exact anchors", all(checks), f"{len(hosts)} closed-form hosts")


def test_criterion_03_constructive_cycle_duality():
    det = cycles_detector()
    rng = SplitMix64(303)
    bad = 0
    for _ in range(1000):
        n = rng.randint(8, 60)
        g = gnp(n, (1.0 + 2.5 * rng.random()) / n, rng.next_u64())
        k = rng.randint(1, 4)
        mode = Mode.VERTEX if rng.random() < 0.5 else Mode.EDGE
        out = ep_cycles(g, k, mode)
        if out.packing is not None:
            if not verify_packing(g, det, out.packing):
                bad += 1
            if len(out.packing) < k:
                bad += 1
        else:
            if not verify_cover(g, det, out.cover):
                bad += 1
            if out.report.hypotheses_held:
                if len(out.cover) > k * short_cycle_threshold(3 * k, 4.0):
                    bad += 1
            if len(out.cover) > out.report.bound_claimed:
                bad += 1
    _verdict(3, "constructive cycle duality", bad == 0, f"{bad} failures")


def test_criterion_04_subtree_min_max():
    rng = SplitMix64(404)
    bad = 0
    for _ in range(500):
        n = rng.randint(4, 12)
        fam = random_subtree_family(
            n, rng.randint(1, 10), rng.randint(1, 4), rng.next_u64()
        )
        packing, cover = gallai(fam)
        opt_pack = _max_disjoint([set(m) for m in fam.members])
        opt_cover = bf_min_hitting(fam.tree.vertices, list(fam.members))
        if not (len(packing) == opt_pack == opt_cover == len(cover)):
            bad += 1
    _verdict(4, "subtree min-max", bad == 0, f"{bad} of 500 off optimum")


def test_criterion_05_disjoint_selection():
    rng = SplitMix64(505)
    bad = 0
    for _ in range(500):
        n = rng.randint(10, 20)
        tree = random_tree(n, rng.next_u64())
        k, q = rng.randint(1, 3), rng.randint(1, 3)
        base = [frozenset({v}) for v in rng.sample(range(n), k * q)]
        fams = []
        for _ in range(q):
            noise = [
                frozenset({rng.randrange(n)}) for _ in range(rng.randint(0, 2))
            ]
            fams.append(base + noise)
        got = rs_selection(tree, fams, k)
        if got is None:
            bad += 1
            continue
        used = set()
        for per in got:
            if len(per) != k or any(mem & used for mem in per):
                bad += 1
                break
            for mem in per:
                used |= mem
    _verdict(5, "disjoint selection", bad == 0, f"{bad} of 500 failed")


def test_criterion_06_balanced_separation():
    det = cycles_detector()
    rng = SplitMix64(606)
    bad = 0
    for _ in range(200):
        n = rng.randint(6, 14)
        g = gnp(n, 0.15 + 0.25 * rng.random(), rng.next_u64())
        td = exact_elimination_td(g)
        sep = balanced_separation(g, to_nice(g, td), det.exact_vpack)
        if not sep.validate(g):
            bad += 1
            continue
        k = det.exact_vpack(g)
        if k == 0:
            continue
        if sep.order > td.width() + 1:
            bad += 1
            continue
        for side in (sep.a - sep.b, sep.b - sep.a):
            if 3 * det.exact_vpack(g.induced(side)) > 2 * k:
                bad += 1
                break
    _verdict(6, "balanced separation", bad == 0, f"{bad} of 200 out of bound")


def test_criterion_07_bounded_width_cover():
    det = cycles_detector()
    rng = SplitMix64(707)
    bad = 0
    for _ in range(100):
        n = rng.randint(8, 13)
        g = gnp(n, 0.15 + 0.2 * rng.random(), rng.next_u64())
        td = min_fill_td(g)
        coeff = max(1, td.width())
        f = lambda k, a=coeff: a * k
        try:
            cover = cover_connected_bounded_tw(g, det, Ceiling(f), td)
        except CeilingViolated:
            continue
        if not verify_cover(g, det, cover):
            bad += 1
            continue
        k = det.exact_vpack(g)
        if k == 0:
            if cover.elements:
                bad += 1
            continue
        if len(cover.elements) > 6 * f(k) * max(1.0, math.log2(k + 1)):
            bad += 1
    _verdict(7, "bounded-width cover", bad == 0, f"{bad} of 100 out of bound")


def test_criterion_08_tree_partition_edge_cover():
    det = cycles_detector()
    rng = SplitMix64(808)
    bad = 0
    for _ in range(100):
        n = rng.randint(8, 14)
        g = gnp(n, 0.15 + 0.2 * rng.random(), rng.next_u64())
        tp = bfs_layer_tp(g)
        r = tp_width(g, tp)
        k = rng.randint(1, 3)
        out = inductive_edge_cover(g, tp, det, k)
        if out.packing is not None:
            if not verify_packing(g, det, out.packing):
                bad += 1
            continue
        if not verify_cover(g, det, out.cover):
            bad += 1
            continue
        if len(out.cover) > k * (r + 2 * r * r):  # d = 2 for cycles
            bad += 1
    _verdict(8, "tree-partition edge cover", bad == 0, f"{bad} of 100 failed")


def test_criterion_09_greedy_pattern_duality():
    patterns = [
        MultiGraph.complete(2),
        MultiGraph.path_graph(3),
        K3,
    ]
    from eppack.certificates import fixed_subgraph_detector

    rng = SplitMix64(909)
    bad = 0
    for _ in range(500):
        g = gnp(rng.randint(4, 14), 0.2 + 0.4 * rng.random(), rng.next_u64())
        pattern = patterns[rng.randrange(3)]
        mode = Mode.VERTEX if rng.random() < 0.5 else Mode.EDGE
        packing, cover = greedy_subgraph_ep(g, pattern, mode)
        det = fixed_subgraph_detector(pattern, "pattern")
        if not verify_packing(g, det, packing):
            bad += 1
            continue
        if not verify_cover(g, det, cover):
            bad += 1
            continue
        per_copy = pattern.n if mode is Mode.VERTEX else pattern.m
        if len(cover) > len(packing) * per_copy:
            bad += 1
    _verdict(9, "greedy pattern duality", bad == 0, f"{bad} of 500 failed")


def test_criterion_10_robust_routing():
    k5 = MultiGraph.complete(5)
    bad = 0
    t2 = thicken(k5, 2)
    for v in sorted(t2.graph.vertices):
        m = route_avoiding(t2, frozenset({v}))
        used = set(m.branch.values())
        for p in m.paths.values():
            used.update(p)
        if v in used or not verify_subdivision_model(t2.graph, k5, m):
            bad += 1
    total = t2.graph.n

    t3 = thicken(k5, 3)
    verts = sorted(t3.graph.vertices)
    rng = SplitMix64(1010)
    for _ in range(200):
        x = frozenset(rng.sample(verts, 2))
        m = route_avoiding(t3, x)
        used = set(m.branch.values())
        for p in m.paths.values():
            used.update(p)
        if (used & x) or not verify_subdivision_model(t3.graph, k5, m):
            bad += 1
    total += 200
    _verdict(10, "robust routing", bad == 0, f"{total} routes, {bad} failed")


def test_criterion_11_conjecture_fuzzers():
    tuza = fuzz_tuza(1000, 10, 1)
    jones = fuzz_jones(500, 12, 2)
    k4 = MultiGraph.complete(4)
    k4_ratio = (
        exact_cover_subgraph(k4, K3, Mode.EDGE).value
        / exact_pack_subgraph(k4, K3, Mode.EDGE).value
    )
    ok = (
        not tuza.violations
        and not jones.violations
        and tuza.max_ratio <= 2.0
        and jones.max_ratio <= 2.0
        and k4_ratio == 2.0
    )
    _verdict(
        11,
        "conjecture fuzzers",
        ok,
        f"tuza max {tuza.max_ratio:.2f}, jones max {jones.max_ratio:.2f}",
    )


def test_criterion_12_format_round_trips(tmp_path):
    rng = SplitMix64(1212)
    ok = True
    count = 0
    for seed in range(15):
        g = gnp(rng.randint(5, 14), 0.2 + 0.3 * rng.random(), rng.next_u64())
        text = eio.format_gr(g)
        ok &= eio.format_gr(eio.parse_gr(text)) == text
        count += 1

        td_text = eio.format_td(min_fill_td(g), g.n)
        ok &= eio.format_td(eio.parse_td(td_text), g.n) == td_text
        count += 1

        tp_text = eio.format_tp(bfs_layer_tp(g), g.n)
        ok &= eio.format_tp(eio.parse_tp(tp_text), g.n) == tp_text
        count += 1

        out = ep_cycles(g, 2, Mode.VERTEX)
        path = tmp_path / f"cert{seed}.json"
        claims = (out.report.bound_claimed, out.report.hypotheses_held)
        first = eio.format_certificate(out.certificate, *claims)
        path.write_text(first)
        ok &= eio.format_certificate(eio.read_certificate(path), *claims) == first
        count += 1
    _verdict(12, "format round-trips", ok, f"{count} files byte-identical")
