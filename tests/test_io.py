import json

import pytest

from eppack import io as eio
from eppack.certificates import CoverCertificate, PackingCertificate, PatternWitness
from eppack.decomp import min_fill_td, validate_td
from eppack.errors import InvalidParameter
from eppack.gadgets import (
    gamma,
    route_avoiding,
    thicken,
    thicken_minor,
    thicken_subcubic,
)
from eppack.gen import gnp, random_subtree_family
from eppack.graph import Mode, MultiGraph
from eppack.treepart import bfs_layer_tp, validate_tp


def test_gr_round_trip_byte_identical():
    for seed in range(10):
        g = gnp(9, 0.4, seed)
        text = eio.format_gr(g)
        assert eio.format_gr(eio.parse_gr(text)) == text


def test_gr_parallel_edges_and_comments():
    text = "c a comment\np gr 3 3\n1 2\n1 2\n2 3\n"
    g = eio.parse_gr(text)
    assert g.m == 3
    assert len(g.edges_between(0, 1)) == 2


def test_gr_errors():
    with pytest.raises(InvalidParameter):
        eio.parse_gr("1 2\n")
    with pytest.raises(InvalidParameter):
        eio.parse_gr("p gr 2 1\n1 3\n")
    with pytest.raises(InvalidParameter):
        eio.parse_gr("p gr 2 2\n1 2\n")


def test_gr_file_round_trip(tmp_path):
    g = gnp(7, 0.5, 3)
    path = tmp_path / "g.gr"
    path.write_text(eio.format_gr(g))
    assert eio.read_gr(path) == MultiGraph.from_edges(
        g.vertices, sorted(tuple(sorted(uv)) for uv in g.edges.values())
    )


def test_td_round_trip():
    g = gnp(8, 0.35, 1)
    td = min_fill_td(g)
    text = eio.format_td(td, g.n)
    back = eio.parse_td(text)
    assert validate_td(g, back)
    assert eio.format_td(back, g.n) == text


def test_tp_round_trip():
    g = gnp(9, 0.3, 2)
    tp = bfs_layer_tp(g)
    text = eio.format_tp(tp, g.n)
    back = eio.parse_tp(text)
    assert validate_tp(g, back)
    assert back.root == 0
    assert eio.format_tp(back, g.n) == text


def test_family_round_trip():
    fam = random_subtree_family(9, 5, 3, 4)
    text = eio.format_family(fam)
    back = eio.parse_family(text)
    assert back.tree.vertices == fam.tree.vertices
    assert sorted(back.tree.edges.values()) == sorted(
        tuple(sorted(uv)) for uv in fam.tree.edges.values()
    )
    assert set(back.members) == set(fam.members)
    assert eio.format_family(back) == text


def test_certificate_round_trip(tmp_path):
    w = PatternWitness(frozenset({0, 1, 2}), frozenset({0, 1, 2}))
    p = PackingCertificate(Mode.VERTEX, (w,))
    path = tmp_path / "c.json"
    path.write_text(eio.format_certificate(p, 1, True))
    assert eio.read_certificate(path) == p

    c = CoverCertificate(Mode.EDGE, frozenset({4, 5}))
    path.write_text(eio.format_certificate(c, None, None))
    assert eio.read_certificate(path) == c


META_GADGETS = {
    "gamma": lambda: gamma(3, 2),
    "subdivision": lambda: thicken(MultiGraph.complete(4), 2),
    "subdivision-subcubic": lambda: thicken_subcubic(MultiGraph.complete(4), 2),
    "minor": lambda: thicken_minor(MultiGraph.complete(5), 2),
}


def test_gadget_meta_round_trip(tmp_path):
    path = tmp_path / "g.meta"
    for variant, make in META_GADGETS.items():
        gadget = make()
        text = eio.format_gadget_meta(gadget)
        size_key = "d" if variant == "gamma" else "pattern"
        assert set(json.loads(text)) == {"variant", "k", size_key}
        path.write_text(text)
        back = eio.read_gadget_meta(path)
        assert back == gadget
        assert eio.format_gadget_meta(back) == text
        if variant == "gamma":
            continue
        x = frozenset(sorted(gadget.graph.vertices)[:1])
        routes = [eio.model_to_dict(route_avoiding(g, x)) for g in (back, gadget)]
        assert json.dumps(routes[0]) == json.dumps(routes[1])


# thicken(K2, 1) in the older .meta format, which listed every Gadget field
OLD_META = (
    '{"k":1,"variant":"subdivision","vertices":[0,1,2,3],'
    '"edges":[[0,0,1],[1,2,3],[2,0,2]],"labels":{"0":["grid",0,0,0],'
    '"1":["apex",0,0],"2":["grid",1,0,0],"3":["apex",1,0]},'
    '"copies":{"0":[0,1],"1":[2,3]},"columns":[[[0,0],[0]],[[1,0],[2]]],'
    '"apex_groups":[[[0,0],[1]],[[1,0],[3]]],"ports":[[[0,0,0],[0]],[[1,0,0],[2]]],'
    '"bundles":[[[0,1],[2]]],"pattern":{"vertices":[0,1],"edges":[[0,0,1]]}}'
)


def test_old_full_gadget_meta_reads_to_the_same_gadget(tmp_path):
    path = tmp_path / "old.meta"
    path.write_text(OLD_META)
    assert eio.read_gadget_meta(path) == thicken(MultiGraph.complete(2), 1)
