"""Conjecture fuzzers and the gap-growth benchmark.

Every reported number is backed by an exact oracle value or a certificate
that is re-verified before the row is admitted.
"""

import hashlib
from dataclasses import dataclass, field

from .certificates import cycles_detector, verify_cover, verify_packing
from .cycles import ep_cycles
from .errors import InvalidParameter, InvariantViolated
from .gen import gnp, planar_stacked
from .graph import Mode, MultiGraph
from .oracles import (
    exact_cover_subgraph,
    exact_pack_subgraph,
    exact_vcover_cycles,
    exact_vpack_cycles,
)
from .rng import SplitMix64


def graph_hash(g):
    payload = f"{g.n};" + ";".join(
        f"{u},{v}" for u, v in sorted(g.edges.values())
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class FuzzReport:
    trials: int
    seed: int
    max_ratio: float = 0.0
    violations: list = field(default_factory=list)


def _fuzz(trials, max_n, seed, make_instance, pack_fn, cover_fn):
    """``make_instance(rng, n)`` builds each trial's host, n drawn from [4, max_n]."""
    if trials < 0 or max_n < 4:
        raise InvalidParameter("fuzz needs trials >= 0 and max_n >= 4")
    rng = SplitMix64(seed)
    report = FuzzReport(trials, seed)
    for trial in range(trials):
        g = make_instance(rng, rng.randint(4, max_n))
        pack = pack_fn(g)
        cover = cover_fn(g)
        if pack > cover:
            raise InvariantViolated(f"packing {pack} exceeds covering {cover}")
        if pack:
            report.max_ratio = max(report.max_ratio, cover / pack)
        if cover > 2 * pack:  # both conjectures bound the ratio by 2
            report.violations.append((trial, graph_hash(g), pack, cover))
    return report


def fuzz_tuza(trials, max_n, seed):
    """Exact triangle edge pack vs edge cover; flags ratio above 2."""
    k3 = MultiGraph.complete(3)

    def make(rng, n):
        p = 0.3 + 0.5 * rng.random()
        return gnp(n, p, rng.next_u64())

    return _fuzz(
        trials,
        max_n,
        seed,
        make,
        lambda g: exact_pack_subgraph(g, k3, Mode.EDGE).value,
        lambda g: exact_cover_subgraph(g, k3, Mode.EDGE).value,
    )


def fuzz_jones(trials, max_n, seed):
    """Exact cycle vertex pack vs feedback vertex set on planar hosts."""

    def make(rng, n):
        deletions = rng.randint(0, n)
        return planar_stacked(n, deletions, rng.next_u64())

    return _fuzz(
        trials,
        max_n,
        seed,
        make,
        lambda g: exact_vpack_cycles(g).value,
        lambda g: exact_vcover_cycles(g).value,
    )


def bench_gap(mode, k_max, n, p, seed):
    """Run the constructive cycle routine for growing k on seeded hosts.

    Returns CSV text, one row per k after the header.
    """
    det = cycles_detector()
    rng = SplitMix64(seed)
    lines = ["k,n,pack,cover,bound,hypotheses_held"]
    for k in range(1, k_max + 1):
        g = gnp(n, p, rng.next_u64())
        outcome = ep_cycles(g, k, mode)
        if outcome.packing is not None:
            if not verify_packing(g, det, outcome.packing):
                raise InvariantViolated(f"ep_cycles packing fails verification at k={k}")
            pack, cover = len(outcome.packing), 0
        else:
            if not verify_cover(g, det, outcome.cover):
                raise InvariantViolated(f"ep_cycles cover fails verification at k={k}")
            harvested = dict(outcome.report.events).get("harvested", 0)
            pack, cover = harvested, len(outcome.cover)
        report = outcome.report
        lines.append(
            f"{k},{g.n},{pack},{cover},{report.bound_claimed},"
            f"{str(report.hypotheses_held).lower()}"
        )
    return "\n".join(lines) + "\n"
