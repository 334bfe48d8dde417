"""Golden outputs of the cycle kernels on fixed seeds.

``tests/data/golden_cycles.json`` was written by the per-step rebuild
``reduce_low_degree`` and the uncut per-edge BFS ``shortest_cycle`` (the
reference kernels in ``helpers``).  The deterministic tie-breaking is part of
the contract, so today's certificates, traces, cycles and oracle node counts
must equal the frozen ones exactly.  To regenerate on purpose, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import pytest

from helpers import random_multigraph

from eppack.cycles import DeleteVertex, ep_cycles, reduce_low_degree
from eppack.gen import gnp
from eppack.graph import Mode, MultiGraph
from eppack.oracles import exact_epack_cycles, exact_vcover_cycles, exact_vpack_cycles
from eppack.rng import SplitMix64

GOLDEN = Path(__file__).parent / "data" / "golden_cycles.json"


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


def _event(ev):
    if isinstance(ev, DeleteVertex):
        return ["delete", ev.vertex, list(ev.edges)]
    return ["suppress", ev.vertex, ev.edge_a, ev.edge_b, ev.replacement, ev.x, ev.z]


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
        out[name] = {"events": [_event(ev) for ev in trace.events], "reduced": _graph(h)}
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
        out[f"gnp({n},{p:.3f},{seed})"] = row
    return out


SECTIONS = {
    "ep_cycles": ep_cycles_section,
    "reduce_low_degree": reduce_section,
    "shortest_cycle": shortest_cycle_section,
    "oracles": oracles_section,
}


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


if __name__ == "__main__":
    data = {name: fn() for name, fn in SECTIONS.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as fh:
        fh.write("{\n")
        for i, (name, rows) in enumerate(data.items()):
            fh.write(f" {json.dumps(name)}: {{\n")
            for j, (key, value) in enumerate(rows.items()):
                sep = "," if j + 1 < len(rows) else ""
                fh.write(f"  {json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}{sep}\n")
            fh.write(" }" + ("," if i + 1 < len(data) else "") + "\n")
        fh.write("}\n")
