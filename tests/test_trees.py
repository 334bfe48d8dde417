import itertools

import pytest

from helpers import _max_disjoint, bf_min_hitting

from eppack.certificates import verify_cover, verify_packing
from eppack.errors import BudgetExceeded, InvalidFamily, InvalidParameter
from eppack.gen import random_subtree_family, random_tree
from eppack.graph import MultiGraph
from eppack.rng import SplitMix64
from eppack.trees import SubtreeFamily, family_detector, gallai, rs_selection


def test_family_validation():
    tree = MultiGraph.path_graph(4)
    SubtreeFamily(tree, (frozenset({0, 1}),)).validate()
    with pytest.raises(InvalidFamily):
        SubtreeFamily(tree, (frozenset(),)).validate()
    with pytest.raises(InvalidFamily):
        SubtreeFamily(tree, (frozenset({0, 2}),)).validate()  # not connected
    with pytest.raises(InvalidFamily):
        SubtreeFamily(MultiGraph.cycle_graph(4), (frozenset({0}),)).validate()
    with pytest.raises(InvalidFamily):
        SubtreeFamily(tree, (frozenset({9}),)).validate()


def test_gallai_equality_and_verification():
    fam = random_subtree_family(12, 8, 4, 3)
    packing, cover = gallai(fam)
    assert len(packing) == len(cover)
    det = family_detector(fam)
    assert verify_packing(fam.tree, det, packing)
    assert verify_cover(fam.tree, det, cover)


def test_gallai_exact_on_random_families():
    for seed in range(60):
        fam = random_subtree_family(10, 7, 4, seed)
        packing, cover = gallai(fam)
        opt_pack = _max_disjoint([set(m) for m in fam.members])
        opt_cover = bf_min_hitting(fam.tree.vertices, list(fam.members))
        assert len(packing) == opt_pack == opt_cover == len(cover), seed


def test_gallai_disjoint_members_all_packed():
    tree = MultiGraph.path_graph(6)
    fam = SubtreeFamily(
        tree, (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}))
    )
    packing, cover = gallai(fam)
    assert len(packing) == 3


def test_gallai_star_family():
    # all members share the center: packing 1, cover {center}
    tree = MultiGraph.from_edges(range(4), [(0, 1), (0, 2), (0, 3)])
    fam = SubtreeFamily(
        tree,
        (frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})),
    )
    packing, cover = gallai(fam)
    assert len(packing) == 1
    assert cover.elements == frozenset({0})


def test_rs_selection_success_under_hypothesis():
    rng = SplitMix64(5)
    for trial in range(40):
        n = 18
        tree = random_tree(n, rng.next_u64())
        k = rng.randint(1, 3)
        q = rng.randint(1, 3)
        # carve k*q disjoint single-vertex members; every family gets them all
        chosen = rng.sample(range(n), k * q)
        base = [frozenset({v}) for v in chosen]
        fams = []
        for _ in range(q):
            extra = [
                frozenset({rng.randrange(n)}) for _ in range(rng.randint(0, 3))
            ]
            fams.append(base + extra)
        got = rs_selection(tree, fams, k)
        assert got is not None, trial
        used = set()
        for per in got:
            assert len(per) == k
            for mem in per:
                assert not (mem & used)
                used |= mem


def test_rs_selection_failure_case():
    tree = MultiGraph.path_graph(3)
    fams = [[frozenset({0, 1})], [frozenset({1, 2})]]
    assert rs_selection(tree, fams, 1) is None


def test_rs_selection_budget_and_params(monkeypatch):
    tree = MultiGraph.path_graph(3)
    with pytest.raises(InvalidParameter):
        rs_selection(tree, [], 1)
    with pytest.raises(InvalidParameter):
        rs_selection(tree, [[frozenset({0})]], 0)
    big = [[frozenset({v}) for v in range(3)] for _ in range(3)]
    monkeypatch.setenv("EP_BUDGET", "2")
    with pytest.raises(BudgetExceeded):
        rs_selection(tree, big, 1)
