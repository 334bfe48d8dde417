"""Constructive packing-or-covering for cycles.

``ep_cycles`` reduces the caller's graph once, then alternates taking a
shortest cycle of the reduced graph with deleting it and reducing again
around the deletion only; a cycle longer than the threshold is recorded as a
high-girth event.  Each harvested cycle is expanded back through one growing
reduction trace, so all certificates refer to the caller's graph.
"""

import heapq
import math
from dataclasses import dataclass, field

from .certificates import (
    CoverCertificate,
    EPOutcome,
    PackingCertificate,
    PatternWitness,
    QualityReport,
)
from .errors import InvalidParameter, InvariantViolated
from .graph import Cycle, Mode, MultiGraph


def short_cycle_threshold(q, c):
    return math.ceil(c * math.log2(q))


# -- low-degree reduction --------------------------------------------------------


@dataclass(slots=True)
class Suppress:
    vertex: int
    edge_a: int  # {x, vertex}
    edge_b: int  # {vertex, z}
    x: int
    z: int


@dataclass
class ReductionTrace:
    """The next fresh edge id of one or more reductions, and the suppression
    that made each replacement edge, keyed by it in the order made."""

    next_eid: int
    made_by: dict = field(default_factory=dict)

    def original_edges(self, cycle):
        """One original edge per edge of a reduced cycle.

        A replacement edge stands for its ``edge_a``, followed back through
        earlier suppressions to an edge of the original graph.
        """
        taken = set()
        for eid in cycle.edges:
            while eid in self.made_by:
                eid = self.made_by[eid].edge_a
            taken.add(eid)
        return frozenset(taken)

    def expand_cycle(self, cycle):
        """Map a cycle of the reduced graph to a cycle of the original."""
        vs = cycle.vertices
        stack = [(vs[i], eid, vs[(i + 1) % len(vs)]) for i, eid in enumerate(cycle.edges)]
        stack.reverse()
        verts, eids = [], []
        while stack:  # each step: a - eid - b, with a first on the cycle
            a, eid, b = stack.pop()
            ev = self.made_by.get(eid)
            if ev is None:
                verts.append(a)
                eids.append(eid)
            elif (a, b) == (ev.x, ev.z):  # x - edge_a - vertex - edge_b - z
                stack += [(ev.vertex, ev.edge_b, b), (a, ev.edge_a, ev.vertex)]
            elif (a, b) == (ev.z, ev.x):
                stack += [(ev.vertex, ev.edge_a, b), (a, ev.edge_b, ev.vertex)]
            else:
                raise InvariantViolated("trace replay mismatch")
        return Cycle(tuple(verts), tuple(eids))


def reduce_low_degree(g, *, seeds=None, trace=None):
    """Strip degree <= 1 vertices and suppress two-neighbor degree-2 vertices.

    Degree-2 vertices whose both edges go to the same neighbor carry a
    2-cycle and are left alone.  Returns the reduced graph and ``trace``,
    grown by this call's suppressions (default: a new one from
    ``g.next_edge_id()``).

    Order contract: each step acts on the smallest-id vertex that qualifies
    in the current graph, deleting it (degree <= 1) or suppressing it into a
    fresh edge (ids from the trace's ``next_eid``, upward in step order).
    The trace and the reduced graph, including its edge order, depend on
    this.  Only ``seeds`` (default: all) may qualify at the start: in a
    fully reduced graph less some vertices or edges, seeding with their
    neighbours gives the full call's result.

    One pass with a heap of candidate vertices and a local degree table, set
    for every vertex (or the seeds) at the start and for others when first
    reached; a deletion lowers its neighbour's entry, a suppression none.
    Only neighbours that qualify after a step are pushed: O((n + m) log n).
    Rows are copied when first changed, and shared with g otherwise.
    """
    parent = g._adj
    adj = dict(parent)
    ends = dict(g.edges)  # working edge table; keeps g's edge order

    def own(u):
        row = adj[u]
        if row is parent[u]:
            row = adj[u] = dict(row)
        return row

    rows = adj.items() if seeds is None else [(v, adj[v]) for v in seeds if v in adj]
    deg = {v: sum(map(len, row.values())) for v, row in rows}
    heap = sorted(v for v, d in deg.items() if d <= 1 or (d == 2 and len(adj[v]) == 2))
    trace = ReductionTrace(g.next_edge_id()) if trace is None else trace
    made_by, next_eid = trace.made_by, trace.next_eid
    while heap:
        v = heapq.heappop(heap)
        row = adj.get(v)
        if row is None or not ((d := deg[v]) <= 1 or (d == 2 and len(row) == 2)):
            continue  # stale entry
        del adj[v]
        if d == 2:  # two single-id rows: v's two edges
            (x, (e1,)), (z, (e2,)) = row.items()
            if e1 > e2:
                x, z, e1, e2 = z, x, e2, e1
            del ends[e1], ends[e2]
            rep = next_eid
            next_eid += 1
            made_by[rep] = Suppress(v, e1, e2, x, z)
            ends[rep] = (x, z) if x < z else (z, x)
            row_x, row_z = own(x), own(z)
            del row_x[v], row_z[v]
            row_x[z] = row_x.get(z, []) + [rep]  # rep tops every id: still ascending
            row_z[x] = row_z.get(x, []) + [rep]
        else:
            for u, (e,) in row.items():  # at most one
                del ends[e], own(u)[v]
                if u in deg:
                    deg[u] -= 1
        for u in row:
            if u not in deg:
                deg[u] = sum(map(len, adj[u].values()))
            if (d := deg[u]) <= 1 or (d == 2 and len(adj[u]) == 2):
                heapq.heappush(heap, u)
    trace.next_eid = next_eid
    if len(adj) == len(parent):  # each step removes a vertex: none happened
        return g, trace
    return MultiGraph._derive(frozenset(adj), ends, adj), trace


# -- the packing-or-covering driver ---------------------------------------------


def ep_cycles(g, k, mode, c=4.0):
    """Either k disjoint cycles or a cycle cover, with a quality report.

    Each round harvests a shortest cycle of the reduced graph, which has no
    vertex of degree <= 1 and no suppressible degree-2 vertex, and deletes
    that reduced cycle from it: its vertices, or its edges, of which the
    cover takes one original edge each.  g is reduced in full once; later
    rounds reduce from the deleted cycle's neighbours, with fresh ids from
    one trace.  When no round's cycle is longer than ceil(c*log2(3k)) the
    cover obeys |cover| <= ceil(c*log2(3k)) * k; otherwise each longer one
    is recorded as a high-girth event and only the generic min-degree-3
    bound is claimed.
    """
    if k < 1 or not 0 < c * math.log2(3 * k) < math.inf:
        raise InvalidParameter("ep_cycles needs k >= 1 and c > 0 with c*log2(3k) finite")
    threshold = short_cycle_threshold(3 * k, c)
    harvested = []
    cover_elems = set()
    events = []
    trace = ReductionTrace(g.next_edge_id())
    residue, touched = g, None
    while True:
        reduced, _ = reduce_low_degree(residue, seeds=touched, trace=trace)
        cyc = reduced.shortest_cycle()
        if cyc is None:
            break
        if len(cyc) > threshold:
            events.append(
                ("high-girth", {"girth": len(cyc), "threshold": threshold})
            )
        harvested.append(trace.expand_cycle(cyc))
        if len(harvested) >= k:
            held = not events
            packing = PackingCertificate(
                mode, tuple(PatternWitness.from_cycle(x) for x in harvested)
            )
            report = QualityReport(
                bound_claimed=k, hypotheses_held=held, events=tuple(events)
            )
            return EPOutcome(report, packing=packing)
        taken = cyc.vertex_set if mode is Mode.VERTEX else cyc.edge_set
        cover_elems |= taken if mode is Mode.VERTEX else trace.original_edges(cyc)
        touched = {u for v in cyc.vertices for u in reduced.neighbors(v)}
        residue = reduced.delete(taken, mode)
    held = not events
    if held:
        bound = threshold * k
    else:
        bound = k * (2 * math.ceil(math.log2(max(2, g.n))) + 2)
    events.append(("harvested", len(harvested)))
    cover = CoverCertificate(mode, frozenset(cover_elems))
    report = QualityReport(
        bound_claimed=bound, hypotheses_held=held, events=tuple(events)
    )
    return EPOutcome(report, cover=cover)
