"""Packing/cover certificates, pattern detectors, and independent verifiers.

A certificate never trusts the algorithm that produced it: verify_packing
and verify_cover recheck everything against the host graph and a detector,
and report structured diagnostics instead of prose.
"""

from dataclasses import dataclass, field

from .errors import BudgetExceeded, InvalidParameter
from .graph import Mode, MultiGraph
from .iso import (
    ENUMERATION_CAP,
    connected_subsets,
    enumerate_copies,
    enumerate_cycles,
    find_copy,
)


@dataclass(frozen=True)
class PatternWitness:
    """Vertex and edge sets of a host subgraph isomorphic to a family member."""

    vertices: frozenset
    edges: frozenset

    def subgraph(self, host):
        es = {}
        for eid in self.edges:
            u, v = host.endpoints(eid)
            es[eid] = (u, v)
        return MultiGraph(self.vertices, es)

    def elements(self, mode):
        return self.vertices if mode is Mode.VERTEX else self.edges

    @classmethod
    def from_cycle(cls, cycle):
        return cls(cycle.vertex_set, cycle.edge_set)


@dataclass(frozen=True)
class PackingCertificate:
    mode: Mode
    members: tuple

    def __len__(self):
        return len(self.members)

    def to_dict(self, bound_claimed=None, hypotheses_held=None):
        members = [[sorted(w.vertices), sorted(w.edges)] for w in self.members]
        d = {"mode": self.mode.value, "kind": "packing", "members": members}
        return _with_claims(d, bound_claimed, hypotheses_held)

    @classmethod
    def from_dict(cls, d):
        members = tuple(
            PatternWitness(_id_set(vs), _id_set(es)) for vs, es in d["members"]
        )
        return cls(Mode.parse(d["mode"]), members)


@dataclass(frozen=True)
class CoverCertificate:
    mode: Mode
    elements: frozenset

    def __len__(self):
        return len(self.elements)

    def to_dict(self, bound_claimed=None, hypotheses_held=None):
        d = {"mode": self.mode.value, "kind": "cover", "elements": sorted(self.elements)}
        return _with_claims(d, bound_claimed, hypotheses_held)

    @classmethod
    def from_dict(cls, d):
        return cls(Mode.parse(d["mode"]), _id_set(d["elements"]))


def _with_claims(d, bound_claimed, hypotheses_held):
    """d with the claims that are not None added, in this order."""
    claims = {"bound_claimed": bound_claimed, "hypotheses_held": hypotheses_held}
    d.update((key, x) for key, x in claims.items() if x is not None)
    return d


def _id_set(ids):
    if not isinstance(ids, list) or not all(type(x) is int for x in ids):
        raise InvalidParameter(f"expected a list of integer ids, got {ids!r}")
    return frozenset(ids)


def certificate_from_dict(d):
    """Certificate from its JSON form; InvalidParameter if it is malformed."""
    try:
        kind = d["kind"]
        if kind == "packing":
            return PackingCertificate.from_dict(d)
        if kind == "cover":
            return CoverCertificate.from_dict(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"malformed certificate: {exc!r}") from None
    raise InvalidParameter(f"unknown certificate kind {kind!r}")


@dataclass(frozen=True)
class QualityReport:
    bound_claimed: int
    hypotheses_held: bool
    events: tuple = ()


@dataclass(frozen=True)
class EPOutcome:
    """Either a packing of the requested size or a cover; never both."""

    report: QualityReport
    packing: PackingCertificate = None
    cover: CoverCertificate = None

    def __post_init__(self):
        if (self.packing is None) == (self.cover is None):
            raise InvalidParameter("outcome must carry exactly one certificate")

    @property
    def certificate(self):
        return self.packing if self.packing is not None else self.cover


@dataclass(frozen=True)
class Diagnostics:
    """A check's verdict: ok exactly when no violation was found."""

    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok


# -- detectors ----------------------------------------------------------------


@dataclass(frozen=True)
class PatternDetector:
    """Predicate/witness finder for a guest family.

    find(g) returns a PatternWitness or None; minimal(g) additionally
    shrinks the witness until no proper subgraph is still a witness.
    enumerate(g) and exact_vpack(g) call the optional callables below.
    """

    name: str
    find: object  # host -> PatternWitness or None
    connected_patterns: bool
    delta_tilde_bound: int = None
    enumerate_witnesses: object = None  # host -> list of PatternWitness
    vpack_oracle: object = None  # host -> its exact vertex-packing number

    def minimal(self, g):
        """Witness shrunk by greedy edge removal with re-testing."""
        w = self.find(g)
        if w is None:
            return None
        while True:
            sub = w.subgraph(g)
            for eid in sorted(w.edges):
                cand = sub.delete_edges([eid])
                inner = self.find(cand)
                if inner is not None:
                    w = inner
                    break
            else:
                break
        # drop vertices not touched by the remaining edges, unless edgeless
        if w.edges:
            touched = set()
            for eid in w.edges:
                u, v = g.endpoints(eid)
                touched.update((u, v))
            w = PatternWitness(frozenset(touched), w.edges)
        return w

    def enumerate(self, g):
        if self.enumerate_witnesses is None:
            raise InvalidParameter(f"detector {self.name} cannot enumerate")
        return self.enumerate_witnesses(g)

    def exact_vpack(self, g):
        if self.vpack_oracle is None:
            raise InvalidParameter(f"detector {self.name} has no exact packer")
        return self.vpack_oracle(g)


def _cycle_witness(g):
    """A shortest cycle, the witness of both cycles and theta_2."""
    c = g.shortest_cycle()
    return None if c is None else PatternWitness.from_cycle(c)


def cycles_detector():
    """The family of graphs containing a cycle (theta_2 as a minor)."""

    def enumerate_witnesses(g):
        return [PatternWitness.from_cycle(c) for c in enumerate_cycles(g)]

    def exact_vpack(g):  # the value only: search the reduced graph
        from . import cycles, oracles

        if g.is_forest():
            return 0
        return oracles.exact_vpack_cycles(cycles.reduce_low_degree(g)[0]).value

    return PatternDetector(
        "cycles",
        _cycle_witness,
        connected_patterns=True,
        delta_tilde_bound=2,
        enumerate_witnesses=enumerate_witnesses,
        vpack_oracle=exact_vpack,
    )


def _spanning_edges(g, xs):
    return set(g.induced(xs).spanning_forest_edges())


def theta_detector(t):
    """Detector for graphs with a theta_t minor (t parallel edges).

    A witness is two disjoint connected sets with >= t edges between them.
    A forest has none; other hosts are searched exactly up to
    ENUMERATION_CAP vertex subsets.  t = 2 is the cycles witness: a
    shortest cycle is chordless, so it is its own theta_2 model.
    """
    if t < 2:
        raise InvalidParameter("theta detector needs t >= 2")
    if t == 2:
        return PatternDetector(
            "theta_2", _cycle_witness, connected_patterns=True, delta_tilde_bound=2
        )

    def find(g):
        if g.is_forest():
            return None  # a theta_t minor needs a cycle
        if 2 ** g.n > ENUMERATION_CAP:
            raise BudgetExceeded(f"host too large for exhaustive theta_{t} search")
        for a in connected_subsets(g):
            rest = g.vertices - a
            if not rest:
                continue
            for comp in g.induced(rest).components():
                cross = []
                for v in sorted(a):
                    for u in sorted(comp):
                        cross.extend(g.edges_between(v, u))
                if len(cross) >= t:
                    cross = frozenset(sorted(cross)[:t])
                    edges = (
                        frozenset(_spanning_edges(g, a))
                        | frozenset(_spanning_edges(g, comp))
                        | cross
                    )
                    return PatternWitness(a | comp, edges)
        return None

    return PatternDetector(
        f"theta_{t}",
        find,
        connected_patterns=True,
        delta_tilde_bound=t,
    )


def fixed_subgraph_detector(pattern, name):
    """Family of graphs containing a fixed small pattern as a subgraph."""

    def find(g):
        got = find_copy(g, pattern)
        if got is None:
            return None
        return PatternWitness(got[0], got[1])

    def enumerate_witnesses(g):
        return [PatternWitness(vs, es) for vs, es in enumerate_copies(g, pattern)]

    maxdeg = max((pattern.degree(v) for v in pattern.vertices), default=0)
    return PatternDetector(
        name,
        find,
        connected_patterns=pattern.is_connected(),
        delta_tilde_bound=maxdeg,
        enumerate_witnesses=enumerate_witnesses,
    )


def triangles_detector():
    return fixed_subgraph_detector(MultiGraph.complete(3), "triangles")


def builtin_detectors():
    """Name -> detector map for the shipped pattern families."""
    return {
        "cycles": cycles_detector(),
        "triangles": triangles_detector(),
        "theta_2": theta_detector(2),
        "theta_3": theta_detector(3),
        "theta_4": theta_detector(4),
        "k3": fixed_subgraph_detector(MultiGraph.complete(3), "k3"),
        "k4": fixed_subgraph_detector(MultiGraph.complete(4), "k4"),
        "k5": fixed_subgraph_detector(MultiGraph.complete(5), "k5"),
        "path3": fixed_subgraph_detector(MultiGraph.path_graph(3), "path3"),
        "k2": fixed_subgraph_detector(MultiGraph.complete(2), "k2"),
    }


# -- verification -------------------------------------------------------------


def verify_packing(g, det, packing):
    """Recheck a packing: membership, witness-hood, pairwise disjointness."""
    for i, w in enumerate(packing.members):
        stray_v = w.vertices - g.vertices
        if stray_v:
            return Diagnostics([("member-vertices-outside-host", i, sorted(stray_v))])
        stray_e = w.edges - set(g.edges)
        if stray_e:
            return Diagnostics([("member-edges-outside-host", i, sorted(stray_e))])
        for eid in w.edges:
            u, v = g.endpoints(eid)
            if u not in w.vertices or v not in w.vertices:
                return Diagnostics([("member-edge-endpoint-missing", i, eid)])
        if det.find(w.subgraph(g)) is None:
            return Diagnostics([("member-not-a-witness", i)])
    seen = {}
    for i, w in enumerate(packing.members):
        for x in sorted(w.elements(packing.mode)):
            if x in seen:
                return Diagnostics([("members-not-disjoint", seen[x], i, x)])
            seen[x] = i
    return Diagnostics()


def verify_cover(g, det, cover):
    """Recheck a cover: element validity and witness-freeness after deletion."""
    stray = cover.elements - g.elements(cover.mode)
    if stray:
        return Diagnostics([("cover-elements-outside-host", sorted(stray))])
    w = det.find(g.delete(cover.elements, cover.mode))
    if w is not None:
        return Diagnostics([("witness-survives-cover", sorted(w.vertices))])
    return Diagnostics()
