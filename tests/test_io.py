import json

import pytest

from eppack import io as eio
from eppack.certificates import CoverCertificate, PackingCertificate, PatternWitness
from eppack.decomp import min_fill_td, validate_td
from eppack.errors import InvalidParameter, WouldCreateLoop
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


# Each malformed .gr text with the error and message it must raise; a
# negative count in the header is an error, not an empty graph.
GR_ERRORS = {
    "missing-header": ("1 2\n", InvalidParameter, "missing 'p gr' header"),
    "empty-text": ("", InvalidParameter, "missing 'p gr' header"),
    "short-header": ("p gr 3\n", InvalidParameter, "expected 2 integers in line 'p gr 3'"),
    "header-token": ("p gr 3 x\n", InvalidParameter, "non-integer token in line 'p gr 3 x'"),
    "edge-token": ("p gr 3 1\n1 x\n", InvalidParameter, "non-integer token in line '1 x'"),
    "edge-one-token": ("p gr 3 1\n1\n", InvalidParameter, "expected 2 integers in line '1'"),
    "edge-three-tokens": (
        "p gr 3 1\n1 2 3\n", InvalidParameter, "expected 2 integers in line '1 2 3'"),
    "edge-arity-before-token": (
        "p gr 2 1\n1 2 x\n", InvalidParameter, "expected 2 integers in line '1 2 x'"),
    "vertex-zero": ("p gr 3 1\n0 2\n", InvalidParameter, "vertex out of range in line '0 2'"),
    "vertex-n-plus-one": (
        "p gr 2 1\n1 3\n", InvalidParameter, "vertex out of range in line '1 3'"),
    "loop": ("p gr 3 1\n2 2\n", WouldCreateLoop, "edge 0 joins 1 to itself"),
    "too-few-edge-lines": ("p gr 2 2\n1 2\n", InvalidParameter, "expected 2 edge lines, got 1"),
    "too-many-edge-lines": (
        "p gr 2 1\n1 2\n1 2\n", InvalidParameter, "expected 1 edge lines, got 2"),
    "negative-vertex-count": (
        "p gr -1 0\n", InvalidParameter, "negative count in line 'p gr -1 0'"),
    "negative-edge-count": (
        "p gr 3 -1\n", InvalidParameter, "negative count in line 'p gr 3 -1'"),
}


@pytest.mark.parametrize("case", sorted(GR_ERRORS))
def test_gr_errors(case):
    text, error, message = GR_ERRORS[case]
    with pytest.raises(error) as info:
        eio.parse_gr(text)
    assert str(info.value) == message


# Every accepted form of one multigraph: edge ids follow the edge lines.
GR_ACCEPTED = {
    "plain": "p gr 3 4\n1 2\n2 3\n3 1\n2 1\n",
    "comments-and-blanks": "c host\n\np gr 3 4\nc first edge\n1 2\n\n2 3\n3 1\n2 1\nc end",
    "crlf": "p gr 3 4\r\n1 2\r\n2 3\r\n3 1\r\n2 1\r\n",
    "padded": "  p gr  3 4 \n\t1 2\n 2   3 \n3 1\t\n2 1\n",
}


@pytest.mark.parametrize("case", sorted(GR_ACCEPTED))
def test_gr_accepted_forms(case):
    g = eio.parse_gr(GR_ACCEPTED[case])
    assert g.vertices == {0, 1, 2}
    assert list(g.edges.items()) == [(0, (0, 1)), (1, (1, 2)), (2, (0, 2)), (3, (0, 1))]
    assert g.edges_between(0, 1) == [0, 3]


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


def test_family_on_an_empty_tree_has_no_members():
    # members come only after the header, even with no tree-edge lines
    fam = eio.parse_family("t 0\n")
    assert fam.tree.n == 0 and fam.members == ()


# The header errors of the bag and family formats, worded as for .gr: a
# negative count is an error, not an empty decomposition or family.
HEADER_ERRORS = {
    "td-missing-header": (eio.parse_td, "b 1 1\n", "missing 's td' header"),
    "td-negative-count": (eio.parse_td, "s td -1 0 3\n", "negative count in line 's td -1 0 3'"),
    "tp-missing-header": (eio.parse_tp, "s td 1 3\n", "missing 's tp' header"),
    "tp-negative-count": (eio.parse_tp, "s tp -1 3\n", "negative count in line 's tp -1 3'"),
    "family-missing-header": (eio.parse_family, "1 2\n", "missing 't <n>' header"),
    "family-negative-count": (eio.parse_family, "t -1\n", "negative count in line 't -1'"),
    "family-header-token": (eio.parse_family, "t x\n", "non-integer token in line 't x'"),
}


@pytest.mark.parametrize("case", sorted(HEADER_ERRORS))
def test_header_errors(case):
    parse, text, message = HEADER_ERRORS[case]
    with pytest.raises(InvalidParameter) as info:
        parse(text)
    assert str(info.value) == message


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
