"""Constructive packing-or-covering for cycles.

The driver alternates low-degree reduction with taking a shortest cycle of
the reduced graph; a cycle longer than the threshold is recorded as a
high-girth event.  Each harvested cycle is expanded back through the
reduction trace, so all certificates refer to the caller's graph.
"""

import heapq
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class DeleteVertex:
    vertex: int
    edges: tuple


@dataclass(frozen=True)
class Suppress:
    vertex: int
    edge_a: int  # {x, vertex}
    edge_b: int  # {vertex, z}
    replacement: int  # fresh edge {x, z}
    x: int
    z: int


@dataclass(frozen=True)
class ReductionTrace:
    events: tuple

    def original_edges(self, cycle):
        """One original edge per edge of a reduced cycle.

        A replacement edge stands for its ``edge_a``, followed back through
        earlier suppressions to an edge of the original graph.
        """
        source = {
            ev.replacement: ev.edge_a for ev in self.events if isinstance(ev, Suppress)
        }
        taken = set()
        for eid in cycle.edges:
            while eid in source:
                eid = source[eid]
            taken.add(eid)
        return frozenset(taken)

    def expand_cycle(self, cycle):
        """Map a cycle of the reduced graph to a cycle of the original."""
        verts = list(cycle.vertices)
        eids = list(cycle.edges)
        for ev in reversed(self.events):
            if not isinstance(ev, Suppress) or ev.replacement not in eids:
                continue
            i = eids.index(ev.replacement)
            a, b = verts[i], verts[(i + 1) % len(verts)]
            # splice x - edge_a - vertex - edge_b - z in the right direction
            if (a, b) == (ev.x, ev.z):
                eids[i : i + 1] = [ev.edge_a, ev.edge_b]
            elif (a, b) == (ev.z, ev.x):
                eids[i : i + 1] = [ev.edge_b, ev.edge_a]
            else:
                raise InvariantViolated("trace replay mismatch")
            verts.insert(i + 1, ev.vertex)
        return Cycle(tuple(verts), tuple(eids))


def reduce_low_degree(g):
    """Strip degree <= 1 vertices and suppress two-neighbor degree-2 vertices.

    Degree-2 vertices whose both edges go to the same neighbor carry a
    2-cycle and are left alone.  Returns the reduced graph and the trace.

    Order contract: each step acts on the smallest-id vertex that qualifies
    in the current graph, deleting it (degree <= 1) or suppressing it into a
    fresh edge (ids from ``g.next_edge_id()`` upward, in step order).  The
    trace and the reduced graph, including its edge order, depend on this.

    One pass over copies of g's rows with a heap of candidate vertices; only
    the neighbours of the vertex just removed are re-examined, so the cost is
    O((n + m) log n), and the working rows become the result's.
    """
    ends = dict(g.edges)  # working edge table; keeps g's edge order
    adj = {v: dict(row) for v, row in g._adj.items()}  # id lists stay shared
    deg = g.degrees()

    def qualifies(v):
        return deg[v] <= 1 or (deg[v] == 2 and len(adj[v]) == 2)

    heap = sorted(v for v in adj if qualifies(v))
    events = []
    next_eid = g.next_edge_id()
    while heap:
        v = heapq.heappop(heap)
        if v not in adj or not qualifies(v):
            continue  # stale entry
        nbrs = adj.pop(v)
        del deg[v]
        incident = sorted(e for ids in nbrs.values() for e in ids)
        for e in incident:
            del ends[e]
        if len(incident) == 2:
            e1, e2 = incident
            x, z = (next(u for u, ids in nbrs.items() if e in ids) for e in incident)
            rep = next_eid
            next_eid += 1
            events.append(Suppress(v, e1, e2, rep, x, z))
            ends[rep] = (min(x, z), max(x, z))
            del adj[x][v], adj[z][v]
            adj[x][z] = adj[x].get(z, []) + [rep]  # rep tops every id: still ascending
            adj[z][x] = adj[z].get(x, []) + [rep]
        else:
            events.append(DeleteVertex(v, tuple(incident)))
            for u, ids in nbrs.items():
                del adj[u][v]
                deg[u] -= len(ids)
        for u in nbrs:
            heapq.heappush(heap, u)
    if not events:
        return g, ReductionTrace(())
    return MultiGraph._derive(frozenset(adj), ends, adj), ReductionTrace(tuple(events))


# -- the packing-or-covering driver ---------------------------------------------


def ep_cycles(g, k, mode, c=4.0):
    """Either k disjoint cycles or a cycle cover, with a quality report.

    Each round harvests a shortest cycle of the reduced residue, which has
    no vertex of degree <= 1 and no suppressible degree-2 vertex.  A cover
    round deletes that reduced cycle: its vertices, or one original edge per
    reduced edge.  When no round's cycle is longer than ceil(c*log2(3k)) the
    cover obeys |cover| <= ceil(c*log2(3k)) * k; otherwise each longer one
    is recorded as a high-girth event and only the generic min-degree-3
    bound is claimed.
    """
    if k < 1 or c <= 0:
        raise InvalidParameter("ep_cycles needs k >= 1 and c > 0")
    threshold = short_cycle_threshold(3 * k, c)
    harvested = []
    cover_elems = set()
    events = []
    residue = g
    while True:
        reduced, trace = reduce_low_degree(residue)
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
        taken = cyc.vertex_set if mode is Mode.VERTEX else trace.original_edges(cyc)
        cover_elems |= taken
        residue = residue.delete(taken, mode)
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
