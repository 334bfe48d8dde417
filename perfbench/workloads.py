"""The three workloads: their inputs, the calls a user makes on each input,
and the checks on every answer.

A run's inputs are a few blocks.  A block is a full grid over the input
properties that drive the cost (size against k or against the edge
probability): every cell appears once, so every block holds the same mix,
and the block's random stream picks only the draw inside each cell, the
order and the graphs.  The blocks come from a fixed corpus seed and the
run's seed picks the order of their instances (see ``CORPUS_SEED``).
Inputs are never filtered on a check's outcome.

A workload calls eppack only through module attributes (``cycles.ep_cycles``
and so on), so the tracer's wrappers, installed on those attributes, see
every call.
"""

import bisect
import itertools
import json
import math
from dataclasses import dataclass

from eppack import certificates, cycles, decomp, gen, io, oracles, treepart, trees
from eppack.errors import CeilingViolated
from eppack.graph import Mode, MultiGraph
from eppack.rng import SplitMix64

CYCLES = certificates.cycles_detector()
TRIANGLES = certificates.triangles_detector()
K3 = MultiGraph.complete(3)


class Check:
    """Collects the failed checks of one instance without stopping it."""

    def __init__(self):
        self.failures = []

    def __call__(self, ok, what):
        if not ok:
            self.failures.append(what)


# -- cycles-sparse -----------------------------------------------------------


SPARSE_SIZES = (100, 200, 400, 800)
SPARSE_K = 8  # k in 1..8, once per size per block


@dataclass(frozen=True)
class SparseInstance:
    k: int
    mode: Mode
    gr: str  # the host as a .gr file, the form a user hands to `ep cycles`


def sparse_block(rng):
    """32 instances: every size meets every k once, each with its own eighth
    of the c range and a mode, modes 4/4 per size.

    The time of an instance grows about linearly with k and more slowly with
    c, so the pairing of k with a c-eighth and a mode is fixed (a cyclic
    shift per size) rather than drawn: every block then holds the same
    cells, and ``rng`` picks c inside its eighth, the order and the graphs.
    At n = 800, which takes most of a block's time, the shift (6) pairs k
    with c neither for nor against: sum(k * eighth) is near its mean over
    all pairings.
    """
    cells = [
        (n, k, (k - 1 + 2 * i) % SPARSE_K, Mode.VERTEX if (k + i) % 2 else Mode.EDGE)
        for i, n in enumerate(SPARSE_SIZES)
        for k in range(1, SPARSE_K + 1)
    ]
    rng.shuffle(cells)
    return [
        (n, 1.5 + 1.5 * (s + rng.random()) / SPARSE_K, k, mode, rng.next_u64())
        for n, k, s, mode in cells
    ]


def sparse_make(spec):
    n, c, k, mode, seed = spec
    return SparseInstance(k, mode, io.format_gr(gen.gnp(n, c / n, seed)))


def certificate_json(cert, report):
    """Write the certificate as `ep cycles -o` does and read it back."""
    text = json.dumps(cert.to_dict(report.bound_claimed, report.hypotheses_held))
    return certificates.certificate_from_dict(json.loads(text))


def sparse_run(inst, check):
    """`ep cycles` then `ep verify`: parse, solve, write and read the
    certificate as JSON, verify it."""
    host = io.parse_gr(inst.gr)
    out = cycles.ep_cycles(host, inst.k, inst.mode)
    cert, report = out.certificate, out.report
    back = certificate_json(cert, report)
    check(back == cert, "certificate-json-roundtrip")
    if out.packing is not None:
        check(len(back) == inst.k, "packing-size-not-k")
        check(certificates.verify_packing(host, CYCLES, back), "packing-invalid")
        kind = "packing"
    else:
        check(len(back) <= report.bound_claimed, "cover-exceeds-bound-claimed")
        check(certificates.verify_cover(host, CYCLES, back), "cover-invalid")
        kind = "cover"
    return (kind, len(back), report.bound_claimed, report.hypotheses_held)


# -- oracle-desk -------------------------------------------------------------


ORACLE_N = tuple(range(3, 13))  # the criterion-01 generator: n in [3, 12]
ORACLE_MAX_M = 30  # size cap so that one host cannot take up a whole run


def _edge_count_cdf(n, steps=100):
    """CDF of m for gnp(n, p), p uniform in [0.2, 0.5], redrawn while m > 30."""
    pairs = n * (n - 1) // 2
    top = min(pairs, ORACLE_MAX_M)
    mass = [0.0] * (top + 1)
    for i in range(steps):
        p = 0.2 + 0.3 * (i + 0.5) / steps
        pmf = [math.comb(pairs, m) * p**m * (1 - p) ** (pairs - m) for m in range(top + 1)]
        kept = sum(pmf)
        for m, x in enumerate(pmf):
            mass[m] += x / kept
    total = sum(mass)
    return list(itertools.accumulate(x / total for x in mass))


ORACLE_M_CDF = {n: _edge_count_cdf(n) for n in ORACLE_N}


def oracle_block(rng):
    """100 hosts: every n meets each tenth of its edge-count distribution once.

    The oracles' cost grows steeply with m, so the grid is over m, not p:
    the m of a cell is the median of its tenth, and ``rng`` picks the
    graph.  Given m, gnp is uniform over m-edge graphs.
    """
    cells = [(n, s) for n in ORACLE_N for s in range(10)]
    rng.shuffle(cells)
    return [
        (n, bisect.bisect_left(ORACLE_M_CDF[n], (s + 0.5) / 10), rng.next_u64())
        for n, s in cells
    ]


def oracle_make(spec):
    """gnp(n, m / C(n, 2)), redrawn with the host's own stream until it has m edges."""
    n, m, seed = spec
    pairs = n * (n - 1) // 2
    rng = SplitMix64(seed)
    while True:
        g = gen.gnp(n, m / pairs, rng.next_u64())
        if g.m == m:
            return g


def _exact(check, g, name, result, det, pack):
    """The witness verifies and its size is the claimed value."""
    verify = certificates.verify_packing if pack else certificates.verify_cover
    check(verify(g, det, result.witness), f"{name}-witness-invalid")
    check(len(result.witness) == result.value, f"{name}-witness-size")
    return result.value


def oracle_run(g, check):
    vp = _exact(check, g, "vpack", oracles.exact_vpack_cycles(g), CYCLES, True)
    vc = _exact(check, g, "vcover", oracles.exact_vcover_cycles(g), CYCLES, False)
    ep = _exact(check, g, "epack", oracles.exact_epack_cycles(g), CYCLES, True)
    ec = _exact(check, g, "ecover", oracles.exact_ecover_cycles(g), CYCLES, False)
    tri = oracles.exact_pack_subgraph(g, K3, Mode.EDGE)
    tp = _exact(check, g, "tpack", tri, TRIANGLES, True)
    tri = oracles.exact_cover_subgraph(g, K3, Mode.EDGE)
    tc = _exact(check, g, "tcover", tri, TRIANGLES, False)
    check(vp <= vc, "vpack-exceeds-vcover")
    check(ep <= ec, "epack-exceeds-ecover")
    check(tp <= tc, "tpack-exceeds-tcover")
    return (g.n, g.m, vp, vc, ep, ec, tp, tc)


# -- decomp-desk -------------------------------------------------------------


DECOMP_N = tuple(range(6, 15))


@dataclass(frozen=True)
class DecompInstance:
    host: MultiGraph
    k: int  # for inductive_edge_cover
    family: object  # SubtreeFamily for gallai


def decomp_block(rng):
    """81 hosts: every n meets each ninth of p in [0.15, 0.40] once."""
    cells = [(n, s) for n in DECOMP_N for s in range(9)]
    rng.shuffle(cells)
    out = []
    for n, s in cells:
        p = 0.15 + 0.25 * (s + rng.random()) / 9
        fam = (rng.randint(4, 12), rng.randint(1, 10), rng.randint(1, 4))
        out.append((n, p, rng.randint(1, 3), fam, rng.next_u64(), rng.next_u64()))
    return out


def decomp_make(spec):
    n, p, k, (fn, count, max_size), gseed, fseed = spec
    return DecompInstance(
        gen.gnp(n, p, gseed),
        k,
        gen.random_subtree_family(fn, count, max_size, fseed),
    )


def decomp_run(inst, check):
    g = inst.host
    td = decomp.exact_elimination_td(g)
    check(decomp.validate_td(g, td), "exact-td-invalid")
    ntd = decomp.to_nice(g, td)
    sep = decomp.balanced_separation(g, ntd, CYCLES.exact_vpack)
    check(sep.validate(g), "separation-invalid")
    check(sep.order <= td.width() + 1, "separation-order-exceeds-width")

    fill = decomp.min_fill_td(g)
    check(decomp.validate_td(g, fill), "min-fill-td-invalid")
    a = max(1, fill.width())
    try:
        cover = decomp.cover_connected_bounded_tw(
            g, CYCLES, decomp.Ceiling(lambda k: a * k), fill
        )
    except CeilingViolated:
        bounded = "ceiling-violated"  # a completed outcome, as in criterion 07
    else:
        check(certificates.verify_cover(g, CYCLES, cover), "tw-cover-invalid")
        bounded = len(cover)

    tp = treepart.bfs_layer_tp(g)
    out = treepart.inductive_edge_cover(g, tp, CYCLES, inst.k)
    if out.packing is not None:
        check(len(out.packing) == inst.k, "tp-packing-size-not-k")
        check(certificates.verify_packing(g, CYCLES, out.packing), "tp-packing-invalid")
    else:
        check(len(out.cover) <= out.report.bound_claimed, "tp-cover-exceeds-bound")
        check(certificates.verify_cover(g, CYCLES, out.cover), "tp-cover-invalid")

    fam = inst.family
    pack, hit = trees.gallai(fam)
    check(len(pack) == len(hit), "gallai-pack-neq-cover")
    det = trees.family_detector(fam)
    check(certificates.verify_packing(fam.tree, det, pack), "gallai-packing-invalid")
    check(certificates.verify_cover(fam.tree, det, hit), "gallai-cover-invalid")
    return (
        td.width(), sep.order, fill.width(), bounded,
        "packing" if out.packing is not None else "cover",
        len(out.certificate), out.report.bound_claimed, len(pack),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    block: object  # rng -> specs of one stratified block
    make: object  # spec -> instance; runs during set-up
    run: object  # (instance, check) -> the answer, a tuple
    blocks: int  # blocks in a run's set of instances


# With graphs drawn from the run's seed, the inputs alone moved each
# workload's figures by up to about a fifth from seed to seed, as far as
# the machine did.  On oracle-desk the search cost of one dense 11-12 vertex
# host varies about fivefold with the order of its vertices alone, and a
# run of under half a minute holds only some twenty such hosts, which take
# most of its time.  On cycles-sparse and decomp-desk the median instance
# lies where instances of neighbouring sizes interleave.  The graphs are
# therefore one fixed corpus per workload, made with eppack.gen from this
# constant (not chosen from any outcome), and the run's seed picks their
# order: every run times the same work.
CORPUS_SEED = 0


def make_set(workload, seed):
    """The instances of a run, in the order the run takes them."""
    corpus = SplitMix64(CORPUS_SEED)
    specs = [spec for _ in range(workload.blocks) for spec in workload.block(corpus)]
    SplitMix64(seed).shuffle(specs)
    return [workload.make(spec) for spec in specs]


# A set takes about 15-55 s here (cycles-sparse: one block, the longest).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cycles-sparse", sparse_block, sparse_make, sparse_run, blocks=1),
        Workload("oracle-desk", oracle_block, oracle_make, oracle_run, blocks=3),
        Workload("decomp-desk", decomp_block, decomp_make, decomp_run, blocks=2),
    )
}
