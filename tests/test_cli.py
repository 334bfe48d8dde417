import argparse
import json
import subprocess
import sys

import pytest

from eppack import io as eio
from eppack.cli import build_parser, main
from eppack.decomp import min_fill_td
from eppack.gadgets import MinorModel, thicken, thicken_subcubic, verify_minor_model
from eppack.gen import gnp
from eppack.graph import MultiGraph
from eppack.treepart import bfs_layer_tp


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "k3.gr"
    path.write_text(eio.format_gr(MultiGraph.complete(3)))
    return str(path)


@pytest.fixture
def host_file(tmp_path):
    path = tmp_path / "host.gr"
    path.write_text(eio.format_gr(gnp(10, 0.35, 7)))
    return str(path)


def test_console_script_smoke():
    out = subprocess.run(
        [sys.executable, "-m", "eppack.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "cycles" in out.stdout and "gadget" in out.stdout


# Every option of every subcommand: its strings (a positional's name), default,
# choices, required flag and nargs.  Options shared by several subcommands
# are declared once in the parser, and must read the same in each.
MODE = (("--mode",), "v", ("v", "e"), False, None)
INPUT = (("-i", "--input"), None, None, True, None)
OUTPUT = (("-o", "--output"), None, None, False, None)
PATTERNS = (("--patterns",), "cycles", None, False, None)
OPTION_TABLE = {
    "cycles": {INPUT, (("-k",), None, None, True, None), MODE,
               (("--c-const",), 4.0, None, False, None), OUTPUT},
    "oracle": {
        ("which", None, ("vpack-cycles", "vcover-cycles", "epack-cycles", "ecover-cycles",
                         "pack-sub", "cover-sub"), True, None),
        INPUT, (("--pattern",), "k3", None, False, None), MODE, OUTPUT,
    },
    "trees": {("action", None, ("gallai", "select"), True, None),
              (("-i", "--input"), None, None, True, "+"), (("-k",), 1, None, False, None),
              OUTPUT},
    "decomp": {
        ("action", None, ("validate", "nice", "separate", "cover", "disconnected"), True, None),
        INPUT, (("-t", "--td"), None, None, True, None), PATTERNS,
        (("-k",), 1, None, False, None), (("--ceiling-coeff",), None, None, False, None), OUTPUT,
    },
    "tp": {("action", None, ("validate", "width", "cover"), True, None), INPUT,
           (("-t", "--tp"), None, None, True, None), PATTERNS, (("-k",), 1, None, False, None),
           OUTPUT},
    "gadget": {
        ("action", None, ("gamma", "thicken", "route"), True, None),
        (("-d",), 4, None, False, None), (("-k",), 3, None, False, None),
        (("--pattern",), "k5", None, False, None), (("--subcubic",), False, None, False, 0),
        (("--minor",), False, None, False, 0), (("-i", "--input"), None, None, False, None),
        (("-x",), "", None, False, None), OUTPUT,
    },
    "fuzz": {("target", None, ("tuza", "jones"), True, None),
             (("--trials",), 100, None, False, None), (("--max-n",), 9, None, False, None),
             (("--seed",), 0, None, False, None)},
    "bench": {MODE, (("--k-max",), 4, None, False, None), (("-n",), 20, None, False, None),
              (("-p",), 0.3, None, False, None), (("--seed",), 0, None, False, None), OUTPUT},
    "verify": {INPUT, (("-c", "--certificate"), None, None, True, None), PATTERNS},
}


def _option_row(action):
    choices = None if action.choices is None else tuple(action.choices)
    return (tuple(action.option_strings) or action.dest, action.default, choices,
            action.required, action.nargs)


def test_option_table():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(OPTION_TABLE)
    for name, table in OPTION_TABLE.items():
        rows = [_option_row(a) for a in sub.choices[name]._actions
                if not isinstance(a, argparse._HelpAction)]
        assert len(rows) == len(table) and set(rows) == table, name


def test_cycles_exit_codes(tmp_path, triangle_file):
    cert = tmp_path / "out.json"
    # one triangle: k=1 yields a packing, k=2 forces a cover
    assert main(["cycles", "-i", triangle_file, "-k", "1", "-o", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    assert payload["kind"] == "packing"
    assert main(["cycles", "-i", triangle_file, "-k", "2", "-o", str(cert)]) == 10
    payload = json.loads(cert.read_text())
    assert payload["kind"] == "cover"


def test_oracle_values(capsys, triangle_file, host_file):
    assert main(["oracle", "vpack-cycles", "-i", triangle_file]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["oracle", "ecover-cycles", "-i", host_file]) == 0
    g = eio.read_gr(host_file)
    assert int(capsys.readouterr().out.strip()) == g.m - g.n + 1


def test_oracle_subgraph_with_pattern(capsys, host_file, triangle_file):
    assert main(
        ["oracle", "pack-sub", "-i", host_file, "--pattern", "k3", "--mode", "e"]
    ) == 0
    value = int(capsys.readouterr().out.strip())
    assert value >= 0
    # a .gr path names a pattern too
    argv = ["oracle", "pack-sub", "-i", host_file, "--pattern", triangle_file, "--mode", "e"]
    assert main(argv) == 0
    assert int(capsys.readouterr().out.strip()) == value


def test_oracle_vpack_on_a_long_cycle(tmp_path, capsys):
    host = tmp_path / "c1500.gr"
    host.write_text(eio.format_gr(MultiGraph.cycle_graph(1500)))
    assert main(["oracle", "vpack-cycles", "-i", str(host)]) == 0
    assert capsys.readouterr().out == "1\n"


def test_oracle_cover_sub(tmp_path, capsys):
    # two disjoint edges meet all four triangles of K4, and no one edge does
    host = tmp_path / "k4.gr"
    host.write_text(eio.format_gr(MultiGraph.complete(4)))
    assert main(["oracle", "cover-sub", "-i", str(host), "--mode", "e"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_search_deeper_than_the_recursion_limit_answers(tmp_path, capsys):
    # one search level per triangle; the limit is lowered to 150 frames
    # above this one, so that a small host is deeper than it
    host = tmp_path / "triangles.gr"
    n = 300
    edges = [(3 * i + a, 3 * i + b) for i in range(n) for a, b in ((0, 1), (1, 2), (0, 2))]
    host.write_text(eio.format_gr(MultiGraph.from_edges(range(3 * n), edges)))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        for which in ("vpack-cycles", "vcover-cycles"):
            assert main(["oracle", which, "-i", str(host)]) == 0
            assert capsys.readouterr().out == "300\n"
    finally:
        sys.setrecursionlimit(limit)


def test_trees_gallai_and_select(tmp_path, capsys):
    from eppack.gen import random_subtree_family
    from eppack.trees import SubtreeFamily, gallai, rs_selection

    fam = random_subtree_family(10, 6, 3, 1)
    fpath = tmp_path / "fam.txt"
    fpath.write_text(eio.format_family(fam))
    assert main(["trees", "gallai", "-i", str(fpath)]) == 0
    assert "packing" in capsys.readouterr().out
    out = tmp_path / "gallai.json"
    assert main(["trees", "gallai", "-i", str(fpath), "-o", str(out)]) == 0
    packing, cover = gallai(fam)
    assert capsys.readouterr().out == f"packing {len(packing)} cover {len(cover)}\n"
    assert json.loads(out.read_text()) == {"packing": packing.to_dict(), "cover": cover.to_dict()}

    # two families on one path, each rich enough for k=1
    tree = MultiGraph.path_graph(4)
    a = SubtreeFamily(tree, (frozenset({0}), frozenset({1})))
    b = SubtreeFamily(tree, (frozenset({2}), frozenset({3})))
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    pa.write_text(eio.format_family(a))
    pb.write_text(eio.format_family(b))
    sel = tmp_path / "select.json"
    assert main(["trees", "select", "-i", str(pa), str(pb), "-k", "1", "-o", str(sel)]) == 0
    assert capsys.readouterr().out == "selection found\n"
    got = json.loads(sel.read_text())
    want = rs_selection(tree, [a.members, b.members], 1)
    assert got == [[sorted(m) for m in per] for per in want]
    (ma,), (mb,) = got
    assert frozenset(ma) in a.members and frozenset(mb) in b.members and not set(ma) & set(mb)

    # families on different trees
    pc = tmp_path / "c.txt"
    pc.write_text(eio.format_family(SubtreeFamily(MultiGraph.path_graph(5), (frozenset({4}),))))
    assert main(["trees", "select", "-i", str(pa), str(pc), "-k", "1"]) == 2
    assert "share one tree" in capsys.readouterr().err

    thin = SubtreeFamily(tree, (frozenset({0, 1}),))
    other = SubtreeFamily(tree, (frozenset({1, 2}),))
    pa.write_text(eio.format_family(thin))
    pb.write_text(eio.format_family(other))
    assert main(["trees", "select", "-i", str(pa), str(pb), "-k", "1"]) == 10


def test_decomp_actions(tmp_path, host_file, capsys):
    g = eio.read_gr(host_file)
    td = min_fill_td(g)
    tdpath = tmp_path / "host.td"
    tdpath.write_text(eio.format_td(td, g.n))

    assert main(["decomp", "validate", "-i", host_file, "-t", str(tdpath)]) == 0
    assert capsys.readouterr().out.strip() == "valid"

    nice_out = tmp_path / "nice.td"
    assert main(
        ["decomp", "nice", "-i", host_file, "-t", str(tdpath), "-o", str(nice_out)]
    ) == 0
    back = eio.read_td(nice_out)
    assert back.width() == td.width()

    assert main(["decomp", "separate", "-i", host_file, "-t", str(tdpath)]) == 0
    sep = json.loads(capsys.readouterr().out)
    assert set(sep) == {"a", "b"}

    code = main(["decomp", "cover", "-i", host_file, "-t", str(tdpath)])
    assert code in (0, 10)

    code = main(
        ["decomp", "disconnected", "-i", host_file, "-t", str(tdpath), "-k", "1"]
    )
    assert code in (0, 10)


def test_decomp_needs_what_the_family_offers(tmp_path, capsys):
    # triangles have no exact packer, and theta_3 cannot enumerate its copies
    host, td = tmp_path / "k4.gr", tmp_path / "k4.td"
    g = MultiGraph.complete(4)
    host.write_text(eio.format_gr(g))
    td.write_text(eio.format_td(min_fill_td(g), g.n))
    for action, family, message in [
        ("separate", "triangles", "no exact packer"),
        ("cover", "triangles", "no exact packer"),
        ("disconnected", "theta_3", "cannot enumerate"),
    ]:
        argv = ["decomp", action, "-i", str(host), "-t", str(td), "--patterns", family]
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_decomp_invalid_td(tmp_path, host_file, capsys):
    bad = tmp_path / "bad.td"
    bad.write_text("s td 1 1 10\nb 1 1\n")
    assert main(["decomp", "validate", "-i", host_file, "-t", str(bad)]) == 1
    assert "invalid" in capsys.readouterr().out


def test_tp_actions(tmp_path, host_file, capsys):
    g = eio.read_gr(host_file)
    tp = bfs_layer_tp(g)
    tppath = tmp_path / "host.tp"
    tppath.write_text(eio.format_tp(tp, g.n))

    assert main(["tp", "validate", "-i", host_file, "-t", str(tppath)]) == 0
    assert main(["tp", "width", "-i", host_file, "-t", str(tppath)]) == 0
    assert int(capsys.readouterr().out.splitlines()[-1]) >= 1
    code = main(["tp", "cover", "-i", host_file, "-t", str(tppath), "-k", "2"])
    assert code in (0, 10)


def test_gadget_pipeline(tmp_path, capsys):
    out = tmp_path / "gad.gr"
    assert main(
        ["gadget", "thicken", "--pattern", "k4", "-k", "2", "-o", str(out)]
    ) == 0
    gadget = eio.read_gadget_meta(str(out) + ".meta")
    assert gadget.graph == eio.read_gr(out) or gadget.graph.n == eio.read_gr(out).n
    made = thicken(MultiGraph.complete(4), 2)
    assert out.read_text() == eio.format_gr(made.graph)
    assert (tmp_path / "gad.gr.meta").read_text() == eio.format_gadget_meta(made)
    assert eio.format_gadget_meta(gadget) == eio.format_gadget_meta(made)

    route_out = tmp_path / "model.json"
    x = str(min(gadget.graph.vertices))
    assert main(
        ["gadget", "route", "-i", str(out) + ".meta", "-x", x, "-o", str(route_out)]
    ) == 0
    model = json.loads(route_out.read_text())
    assert "branch" in model and "paths" in model

    assert main(["gadget", "gamma", "-d", "2", "-k", "2"]) == 0
    assert "14 vertices" in capsys.readouterr().out


@pytest.mark.parametrize("variant", ["minor", "subcubic"])
def test_gadget_thicken_variants(tmp_path, capsys, variant):
    out = tmp_path / "gad.gr"
    argv = ["gadget", "thicken", "--pattern", "k4", "-k", "2", f"--{variant}", "-o", str(out)]
    assert main(argv) == 0
    # the .gr file numbers vertices 1..n; the .meta file keeps the ids
    gadget = eio.read_gadget_meta(str(out) + ".meta")
    g = gadget.graph
    assert (eio.read_gr(out).n, eio.read_gr(out).m) == (g.n, g.m)
    assert capsys.readouterr().out == f"{g.n} vertices, {g.m} edges\n"
    assert max(map(g.degree, g.vertices)) <= 3
    assert gadget.variant == {"minor": "minor", "subcubic": "subdivision-subcubic"}[variant]
    if variant == "subcubic":
        return
    route_out = tmp_path / "model.json"
    x = min(g.vertices)
    argv = ["gadget", "route", "-i", str(out) + ".meta", "-x", str(x), "-o", str(route_out)]
    assert main(argv) == 0
    d = json.loads(route_out.read_text())
    assert d["kind"] == "minor"
    model = MinorModel(
        {int(v): frozenset(bs) for v, bs in d["branch_sets"].items()},
        {tuple(key): eid for key, eid in d["edge_map"]},
    )
    assert verify_minor_model(g, MultiGraph.complete(4), model)
    assert all(x not in bs for bs in model.branch_sets.values())


def test_gadget_thicken_takes_one_variant(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gadget", "thicken", "--pattern", "k4", "--subcubic", "--minor"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_fuzz_and_bench(tmp_path, capsys):
    assert main(["fuzz", "tuza", "--trials", "20", "--max-n", "7"]) == 0
    assert "0 violations" in capsys.readouterr().out

    csv_out = tmp_path / "gap.csv"
    assert main(
        ["bench", "--mode", "e", "--k-max", "2", "-n", "12", "-o", str(csv_out)]
    ) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "k,n,pack,cover,bound,hypotheses_held"
    assert len(lines) >= 2

    # sparse hosts: k = 3 and 4 end in verified covers within their bounds
    argv = ["bench", "--mode", "v", "--k-max", "4", "-n", "20", "-p", "0.1", "--seed", "0"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    rows = [[int(x) for x in line.split(",")[:5]] for line in lines]
    covers = [row for row in rows if row[2] < row[0]]  # a packing row packs k
    assert [row[0] for row in covers] == [3, 4]
    assert all(cover <= bound for _, _, _, cover, bound in covers)


def test_verify_round_trip(tmp_path, triangle_file, capsys):
    cert = tmp_path / "c.json"
    main(["cycles", "-i", triangle_file, "-k", "1", "-o", str(cert)])
    assert main(["verify", "-i", triangle_file, "-c", str(cert)]) == 0
    assert capsys.readouterr().out.strip() == "valid"

    # a cover that misses the only cycle must be rejected
    from eppack.certificates import CoverCertificate
    from eppack.graph import Mode

    cert.write_text(eio.format_certificate(CoverCertificate(Mode.VERTEX, frozenset()), None, None))
    g = eio.read_gr(triangle_file)
    assert g.m == 3
    assert main(["verify", "-i", triangle_file, "-c", str(cert)]) == 1


def test_verify_theta_cover_on_a_long_path(tmp_path, capsys):
    # an empty cover is valid on a forest, whatever its size
    host, cert = tmp_path / "path.gr", tmp_path / "c.json"
    host.write_text(eio.format_gr(MultiGraph.path_graph(18)))
    cert.write_text(EMPTY_COVER)
    argv = ["verify", "-i", str(host), "-c", str(cert), "--patterns", "theta_3"]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "valid"


@pytest.mark.parametrize("argv", [
    ["fuzz", "tuza", "--max-n", "3"],
    ["fuzz", "jones", "--max-n", "2"],
    ["fuzz", "tuza", "--trials", "-1"],
])
def test_fuzz_rejects_bad_sizes(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


def test_error_exit_code(capsys):
    assert main(["cycles", "-i", "/nonexistent/file.gr", "-k", "1"]) == 2
    assert "error:" in capsys.readouterr().err


TRIANGLE_GR = "p gr 3 3\n1 2\n1 3\n2 3\n"
TRIANGLE_TD = "s td 1 3 3\nb 1 1 2 3\n"
TRIANGLE_TP = "s tp 1 3\nb 1 1 2 3\n"
EMPTY_COVER = '{"kind":"cover","mode":"v","elements":[]}'
THICK_META = eio.format_gadget_meta(thicken(MultiGraph.complete(4), 2))
# k5 has degree 4, so its subcubic thickening holds no subdivision of it
SUBCUBIC_K5_META = eio.format_gadget_meta(thicken_subcubic(MultiGraph.complete(5), 2))


def _thick_meta(**fields):
    return json.dumps({**json.loads(THICK_META), **fields})


MALFORMED = {
    "gr-header-token": ("cycles", "p gr 3 x\n"),
    "gr-edge-token": ("cycles", "p gr 3 1\n1 x\n"),
    "gr-edge-arity": ("cycles", "p gr 3 1\n1 2 3\n"),
    "gr-negative-count": ("cycles", "p gr -1 0\n"),
    "td-short-header": ("td", "s td 1 2\nb 1 1 2 3\n"),
    "td-bag-token": ("td", "s td 1 3 3\nb 1 1 x 3\n"),
    "td-negative-count": ("td", "s td -1 0 3\n"),
    "tp-short-header": ("tp", "s tp 1\nb 1 1 2 3\n"),
    "tp-negative-count": ("tp", "s tp -1 3\n"),
    "family-edge-token": ("family", "t 2\n1 x\n1\n"),
    "family-negative-count": ("family", "t -1\n"),
    "cert-missing-keys": ("verify", '{"kind":"packing"}'),
    "cert-wrong-type": ("verify", '{"kind":"cover","mode":"v","elements":[[1]]}'),
    "cert-not-json": ("verify", "not json"),
    "gr-not-utf8": ("cycles", b"p gr 3 1\n1 2\xff\n"),
    "meta-not-json": ("gadget", "not json"),
    "meta-missing-keys": ("gadget", '{"k": 2}'),
    "meta-unknown-variant": ("gadget", _thick_meta(variant="nope")),
    "meta-k-zero": ("gadget", _thick_meta(k=0)),
    "meta-k-not-int": ("gadget", _thick_meta(k=2.5)),
    "meta-gamma-no-d": ("gadget", '{"variant": "gamma", "k": 2}'),
    "meta-edge-missing-endpoint": (
        "gadget", _thick_meta(pattern={"vertices": [0, 1], "edges": [[0, 0, 5]]}),
    ),
    "meta-json-list": ("gadget", '["subdivision", 2]'),
    # well-formed files, with an argument that names nothing
    "patterns-verify": ("verify-patterns", EMPTY_COVER),
    "patterns-separate": ("separate-patterns", TRIANGLE_TD),
    "patterns-cover": ("cover-patterns", TRIANGLE_TD),
    "patterns-disconnected": ("disconnected-patterns", TRIANGLE_TD),
    "patterns-tp-cover": ("tp-cover-patterns", TRIANGLE_TP),
    "route-x-token": ("route-x", THICK_META),
    "route-x-unknown": ("route-x-unknown", THICK_META),
    "route-no-input": ("route-no-input", THICK_META),
    "route-subcubic-k5": ("gadget", SUBCUBIC_K5_META),
    "oracle-pattern": ("oracle-pattern", TRIANGLE_GR),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    command, text = MALFORMED[case]
    host = tmp_path / "host.gr"
    host.write_text(TRIANGLE_GR)
    bad = tmp_path / "bad"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = {
        "cycles": ["cycles", "-i", str(bad), "-k", "1"],
        "td": ["decomp", "validate", "-i", str(host), "-t", str(bad)],
        "tp": ["tp", "validate", "-i", str(host), "-t", str(bad)],
        "family": ["trees", "gallai", "-i", str(bad)],
        "verify": ["verify", "-i", str(host), "-c", str(bad)],
        "gadget": ["gadget", "route", "-i", str(bad), "-x", "0"],
        "verify-patterns": ["verify", "-i", str(host), "-c", str(bad), "--patterns", "nope"],
        "separate-patterns": ["decomp", "separate", "-i", str(host), "-t", str(bad), "--patterns", "nope"],
        "cover-patterns": ["decomp", "cover", "-i", str(host), "-t", str(bad), "--patterns", "nope"],
        "disconnected-patterns": [
            "decomp", "disconnected", "-i", str(host), "-t", str(bad), "--patterns", "cycles,nope",
        ],
        "tp-cover-patterns": ["tp", "cover", "-i", str(host), "-t", str(bad), "--patterns", "nope"],
        "route-x": ["gadget", "route", "-i", str(bad), "-x", "1,a"],
        "route-x-unknown": ["gadget", "route", "-i", str(bad), "-x", "999999"],
        "route-no-input": ["gadget", "route", "-x", "0"],
        "oracle-pattern": ["oracle", "pack-sub", "-i", str(host), "--pattern", "nope"],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
