"""Tree partitions, their width, and the inductive edge-cover procedure for
connected patterns on hosts of bounded tree-partition width."""

from dataclasses import dataclass

from .certificates import (
    CoverCertificate,
    Diagnostics,
    EPOutcome,
    PackingCertificate,
    QualityReport,
)
from .errors import InvalidParameter, InvalidPartition, InvariantViolated
from .graph import Mode, MultiGraph, postorder, subtree_unions


@dataclass(frozen=True)
class TreePartition:
    tree: MultiGraph
    root: int
    bags: dict  # tree vertex -> frozenset of host vertices


def validate_tp(g, tp):
    """Partition property plus the within-bag-or-across-tree-edge condition."""
    if set(tp.bags) != set(tp.tree.vertices) or tp.root not in tp.bags:
        return Diagnostics([("bags-vs-tree-mismatch",)])
    if not tp.tree.is_forest() or not tp.tree.is_connected():
        return Diagnostics([("partition-tree-not-a-tree",)])
    seen = set()
    for t in sorted(tp.bags):
        overlap = tp.bags[t] & seen
        if overlap:
            return Diagnostics([("bags-overlap", t, sorted(overlap))])
        seen |= tp.bags[t]
    if seen != g.vertices:
        return Diagnostics([("bags-miss-vertices", sorted(g.vertices - seen))])
    home = {v: t for t, bag in tp.bags.items() for v in bag}
    tree_pairs = {tuple(sorted(uv)) for uv in tp.tree.edges.values()}
    for eid in sorted(g.edges):
        u, v = g.endpoints(eid)
        tu, tv = home[u], home[v]
        if tu != tv and tuple(sorted((tu, tv))) not in tree_pairs:
            return Diagnostics([("edge-crosses-non-adjacent-bags", eid)])
    return Diagnostics()


def tp_width(g, tp):
    """Max over bag sizes, bag-internal edge counts, and cross-edge counts."""
    home = {v: t for t, bag in tp.bags.items() for v in bag}
    internal = {t: 0 for t in tp.bags}
    cross = {}
    for eid, (u, v) in g.edges.items():
        tu, tv = home[u], home[v]
        if tu == tv:
            internal[tu] += 1
        else:
            key = tuple(sorted((tu, tv)))
            cross[key] = cross.get(key, 0) + 1
    vals = [len(b) for b in tp.bags.values()]
    vals += list(internal.values())
    vals += list(cross.values())
    return max(vals, default=0)


def bfs_layer_tp(g):
    """Heuristic partition: BFS layers per component, chained into one tree."""
    if not g.vertices:
        tree = MultiGraph(range(1), {})
        return TreePartition(tree, 0, {0: frozenset()})
    bags = {}
    edges = []
    prev_last = None
    for comp in g.components():
        start = min(comp)
        layer = {start}
        seen = {start}
        first = None
        while layer:
            nid = len(bags)
            bags[nid] = frozenset(layer)
            if first is None:
                first = nid
            else:
                edges.append((nid - 1, nid))
            nxt = set()
            for v in layer:
                for u in g.neighbors(v):
                    if u not in seen:
                        seen.add(u)
                        nxt.add(u)
            layer = nxt
        if prev_last is not None:
            edges.append((prev_last, first))
        prev_last = len(bags) - 1
    tree = MultiGraph.from_edges(range(len(bags)), edges)
    return TreePartition(tree, 0, bags)


# -- the inductive edge cover ----------------------------------------------------


def inductive_edge_cover(g, tp, det, k):
    """k edge-disjoint witnesses, or an edge cover of size <= k*r*(d*r + 1).

    Each round finds the deepest partition node whose subtree holds a
    witness, shrinks it to a minimal one, and cuts the bag-internal edges
    plus the bundles toward the children that minimal witness touches.
    The residue only loses edges and holding a witness is monotone under
    edge deletion, so a node that had none still has none: each round's
    postorder scan resumes at the node the last round found.
    """
    if k < 1:
        raise InvalidParameter("k must be at least 1")
    check = validate_tp(g, tp)
    if not check:
        raise InvalidPartition(f"invalid partition: {check.violations}")
    if det.delta_tilde_bound is None or not det.connected_patterns:
        raise InvalidParameter("detector must be connected with a degree bound")
    r = tp_width(g, tp)
    d = det.delta_tilde_bound

    children = tp.tree.rooted(tp.root)
    post = postorder(children, tp.root)
    subtree_vs = subtree_unions(children, post, tp.bags)

    members = []
    cut_all = set()
    residue = g
    i = 0  # index in post of the first node that may hold a witness
    while len(members) < k:
        found = None
        while i < len(post):
            t = post[i]
            sub = residue.induced(subtree_vs[t] & residue.vertices)
            w = det.minimal(sub)
            if w is not None:
                found = (t, w)
                break
            i += 1
        if found is None:
            bound = k * r * (d * r + 1)
            if len(cut_all) > bound:
                raise InvariantViolated(f"cover of {len(cut_all)} edges exceeds its bound {bound}")
            cover = CoverCertificate(Mode.EDGE, frozenset(cut_all))
            report = QualityReport(bound_claimed=bound, hypotheses_held=True)
            return EPOutcome(report, cover=cover)
        t, w = found
        bag = tp.bags[t]
        touched = [c for c in children[t] if subtree_vs[c] & w.vertices]
        if len(touched) > r * d:
            raise InvariantViolated("witness meets too many child subtrees")
        # the bag-internal edges and the bundles to the touched children's bags
        near = bag.union(*(tp.bags[c] for c in touched))
        cut = {eid for v in bag for u in residue.neighbors(v) if u in near
               for eid in residue.edges_between(v, u)}
        if len(cut) > r + d * r * r:
            raise InvariantViolated("per-round cut exceeds its bound")
        members.append(w)
        cut_all |= cut
        residue = residue.delete_edges(cut)

    used = set()
    for w in members:
        if w.edges & used:
            raise InvariantViolated("collected witnesses share an edge")
        used |= w.edges
    packing = PackingCertificate(Mode.EDGE, tuple(members))
    report = QualityReport(bound_claimed=k, hypotheses_held=True)
    return EPOutcome(report, packing=packing)
