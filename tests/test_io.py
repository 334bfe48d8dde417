import pytest

from eppack import io as eio
from eppack.certificates import CoverCertificate, PackingCertificate, PatternWitness
from eppack.decomp import min_fill_td, validate_td
from eppack.errors import InvalidParameter
from eppack.gadgets import thicken
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


def test_gadget_meta_round_trip(tmp_path):
    gadget = thicken(MultiGraph.complete(4), 2)
    path = tmp_path / "g.meta"
    path.write_text(eio.format_gadget_meta(gadget))
    back = eio.read_gadget_meta(path)
    assert back.graph == gadget.graph
    assert back.labels == gadget.labels
    assert back.bundles == gadget.bundles
    assert back.columns == gadget.columns
    assert back.apex_groups == gadget.apex_groups
    assert back.copies == gadget.copies
    assert back.pattern == gadget.pattern
