"""Golden outputs of the cycle kernels on fixed seeds.

``tests/data/golden_cycles.json`` was written by the per-step rebuild
``reduce_low_degree`` and the uncut per-edge BFS ``shortest_cycle`` (the
reference kernels in ``helpers``).  The deterministic tie-breaking is part of
the contract, so today's certificates, traces, cycles and oracle node counts
must equal the frozen ones exactly.

``tests/data/golden_formats.json`` freezes the exact text of the formatters
(graphs, tree decompositions in min-fill, nice and exact form, tree partitions,
subtree families, certificate JSON) and of the certificate-writing CLI
commands, with their exit codes and stderr, on seeded ``gnp`` hosts.

To regenerate both files on purpose, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import random_multigraph

from eppack import io as eio
from eppack.cli import main
from eppack.cycles import ep_cycles, reduce_low_degree
from eppack.decomp import exact_elimination_td, min_fill_td, to_nice
from eppack.gen import gnp, random_subtree_family
from eppack.graph import Mode, MultiGraph
from eppack.oracles import (
    exact_cover_subgraph,
    exact_epack_cycles,
    exact_pack_subgraph,
    exact_vcover_cycles,
    exact_vpack_cycles,
)
from eppack.rng import SplitMix64
from eppack.treepart import bfs_layer_tp

GOLDEN = Path(__file__).parent / "data" / "golden_cycles.json"
FORMATS_GOLDEN = Path(__file__).parent / "data" / "golden_formats.json"
K3 = MultiGraph.complete(3)


def _gnp_hosts():
    for i, n in enumerate((8, 12, 20, 30, 50, 100, 200, 400)):
        for j, c in enumerate((1.5, 3.0)):
            seed = 100 * i + j
            yield f"gnp({n},{c}/n,{seed})", gnp(n, c / n, seed)


def _named_hosts():
    yield "cycle_graph(100)", MultiGraph.cycle_graph(100)
    yield "theta(3)", MultiGraph.theta(3)
    yield "petersen()", MultiGraph.petersen()


def _multigraphs(count=60):
    rng = SplitMix64(2024)
    for i in range(count):
        yield f"multigraph#{i}", random_multigraph(rng)


def _cycle(c):
    return None if c is None else [list(c.vertices), list(c.edges)]


def _graph(g):
    return [sorted(g.vertices), [[e, u, v] for e, (u, v) in g.edges.items()]]


def ep_cycles_section():
    out = {}
    for name, g in [*_gnp_hosts(), *_named_hosts()]:
        for mode in Mode:
            for k in range(1, 9):
                for c in (4.0, 1.0):  # c = 1 makes high-girth rounds common
                    res = ep_cycles(g, k, mode, c)
                    rep = res.report
                    cert = res.certificate.to_dict(rep.bound_claimed, rep.hypotheses_held)
                    cert["events"] = json.loads(json.dumps(rep.events))
                    out[f"{name} {mode.value} k={k} c={c}"] = cert
    return out


def reduce_section():
    out = {}
    for name, g in [*_gnp_hosts(), *_named_hosts(), *_multigraphs()]:
        h, trace = reduce_low_degree(g)
        events = [["suppress", ev.vertex, ev.edge_a, ev.edge_b, rep, ev.x, ev.z]
                  for rep, ev in trace.made_by.items()]
        out[name] = {"events": events, "reduced": _graph(h)}
    return out


def shortest_cycle_section():
    out = {}
    for name, g in [*_gnp_hosts(), *_named_hosts(), *_multigraphs()]:
        out[name] = _cycle(g.shortest_cycle())
        out[f"{name} reduced"] = _cycle(reduce_low_degree(g)[0].shortest_cycle())
    for name, g in (("complete(5)", MultiGraph.complete(5)),
                    ("complete_bipartite(3,4)", MultiGraph.complete_bipartite(3, 4))):
        out[name] = _cycle(g.shortest_cycle())
    for seed in range(10):  # near-forests: few, long cycles
        out[f"gnp(150,1.2/n,{seed})"] = _cycle(gnp(150, 1.2 / 150, seed).shortest_cycle())
    return out


def oracles_section():
    out = {}
    for seed in range(50):
        rng = SplitMix64(7000 + seed)
        n = rng.randint(5, 10)
        p = 0.2 + 0.3 * rng.random()
        g = gnp(n, p, seed)
        row = {}
        for name, oracle in (("vpack", exact_vpack_cycles), ("vcover", exact_vcover_cycles),
                             ("epack", exact_epack_cycles)):
            res = oracle(g)
            row[name] = [res.value, res.explored]
        for name, oracle in (("tpack", exact_pack_subgraph), ("tcover", exact_cover_subgraph)):
            for mode in Mode:
                res = oracle(g, K3, mode)
                row[f"{name} {mode.value}"] = [res.value, res.explored]
        out[f"gnp({n},{p:.3f},{seed})"] = row
    return out


SECTIONS = {
    "ep_cycles": ep_cycles_section,
    "reduce_low_degree": reduce_section,
    "shortest_cycle": shortest_cycle_section,
    "oracles": oracles_section,
}


def _format_hosts():
    for seed in range(12):
        rng = SplitMix64(9000 + seed)
        n = rng.randint(6, 12)
        p = 0.2 + 0.3 * rng.random()
        yield f"gnp({n},{p:.3f},{seed})", gnp(n, p, seed)


def graph_text_section():
    return {name: eio.format_gr(g) for name, g in _format_hosts()}


def td_text_section():
    out = {}
    for name, g in _format_hosts():
        td = min_fill_td(g)
        out[f"{name} min-fill"] = eio.format_td(td, g.n)
        out[f"{name} nice"] = eio.format_td(to_nice(g, td).to_td(), g.n)
    return out


def exact_td_text_section():
    """``exact_elimination_td`` as ``.td`` text, which pins its elimination
    order: the DP's tie-breaking decides the bags and the tree."""
    hosts = [*_format_hosts(), ("petersen()", MultiGraph.petersen()),
             ("complete(6)", MultiGraph.complete(6)),
             ("cycle_graph(12)", MultiGraph.cycle_graph(12))]
    for n in range(15):
        for j, p in enumerate((0.2, 0.45)):
            seed = 500 + 2 * n + j
            hosts.append((f"gnp({n},{p},{seed})", gnp(n, p, seed)))
    return {name: eio.format_td(exact_elimination_td(g), g.n) for name, g in hosts}


def tp_text_section():
    out = {}
    for name, g in _format_hosts():
        tp = bfs_layer_tp(g)
        out[name] = eio.format_tp(tp, g.n)
        # the root is written first, whatever its id
        last = replace(tp, root=max(tp.bags))
        out[f"{name} rooted at last bag"] = eio.format_tp(last, g.n)
    return out


def family_text_section():
    out = {}
    for seed in range(12):
        n, count, size = 4 + seed, 2 + seed % 5, 1 + seed % 4
        fam = random_subtree_family(n, count, size, seed)
        out[f"random_subtree_family({n},{count},{size},{seed})"] = eio.format_family(fam)
    return out


def certificate_text_section():
    """Text of ``io.format_certificate``, with and without the claims."""
    out = {}
    text = eio.format_certificate
    for name, g in _format_hosts():
        for mode in Mode:
            for k in (1, 3):
                res = ep_cycles(g, k, mode)
                rep = res.report
                kind = "packing" if res.packing is not None else "cover"
                key = f"{name} {mode.value} k={k} {kind}"
                out[f"{key} claims"] = text(res.certificate, rep.bound_claimed,
                                            rep.hypotheses_held)
                out[key] = text(res.certificate, None, None)
        out[f"{name} vpack witness"] = text(exact_vpack_cycles(g).witness, None, None)
        out[f"{name} vcover witness"] = text(exact_vcover_cycles(g).witness, None, None)
    return out


def cli_text_section():
    """Exit code, written file and stderr of the certificate-writing commands."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, g in _format_hosts():
            gr, td, tp, result = tmp / "h.gr", tmp / "h.td", tmp / "h.tp", tmp / "out"
            gr.write_text(eio.format_gr(g))
            td.write_text(eio.format_td(min_fill_td(g), g.n))
            tp.write_text(eio.format_tp(bfs_layer_tp(g), g.n))
            runs = {
                "cycles v k=1": ["cycles", "-i", gr, "-k", "1"],
                "cycles e k=3": ["cycles", "-i", gr, "-k", "3", "--mode", "e"],
                "oracle vcover-cycles": ["oracle", "vcover-cycles", "-i", gr],
                "decomp nice": ["decomp", "nice", "-i", gr, "-t", td],
                "decomp cover": ["decomp", "cover", "-i", gr, "-t", td],
                "decomp disconnected k=1": [
                    "decomp", "disconnected", "-i", gr, "-t", td],
                "decomp disconnected k=2 triangles": [
                    "decomp", "disconnected", "-i", gr, "-t", td, "-k", "2",
                    "--patterns", "triangles"],
                "tp cover k=1": ["tp", "cover", "-i", gr, "-t", tp],
                "tp cover k=2": ["tp", "cover", "-i", gr, "-t", tp, "-k", "2"],
            }
            for label, argv in runs.items():
                result.unlink(missing_ok=True)
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([str(a) for a in argv] + ["-o", str(result)])
                written = result.read_text() if result.exists() else None
                out[f"{name} {label}"] = [code, written, err.getvalue()]
    return out


FORMAT_SECTIONS = {
    "format_gr": graph_text_section,
    "format_td": td_text_section,
    "format_td exact": exact_td_text_section,
    "format_tp": tp_text_section,
    "format_family": family_text_section,
    "certificate": certificate_text_section,
    "cli": cli_text_section,
}


@pytest.fixture(scope="module")
def golden_formats():
    return json.loads(FORMATS_GOLDEN.read_text())


@pytest.mark.parametrize("section", sorted(FORMAT_SECTIONS))
def test_formats_match_golden(golden_formats, section):
    got = FORMAT_SECTIONS[section]()
    want = golden_formats[section]
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_matches_golden(golden, section):
    got = json.loads(json.dumps(SECTIONS[section]()))
    want = golden[section]
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def _write_golden(path, sections):
    """One row per line, so a changed row shows as a one-line diff."""
    data = {name: fn() for name, fn in sections.items()}
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        fh.write("{\n")
        for i, (name, rows) in enumerate(data.items()):
            fh.write(f" {json.dumps(name)}: {{\n")
            for j, (key, value) in enumerate(rows.items()):
                sep = "," if j + 1 < len(rows) else ""
                fh.write(f"  {json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}{sep}\n")
            fh.write(" }" + ("," if i + 1 < len(data) else "") + "\n")
        fh.write("}\n")


if __name__ == "__main__":
    _write_golden(GOLDEN, SECTIONS)
    _write_golden(FORMATS_GOLDEN, FORMAT_SECTIONS)
