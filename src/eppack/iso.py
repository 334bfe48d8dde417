"""Backtracking subgraph search and cycle enumeration for small patterns."""

from .errors import BudgetExceeded
from .graph import Cycle

# The most copies, cycles or connected subsets one enumeration may produce,
# and the most vertex subsets an exhaustive theta search may scan.
ENUMERATION_CAP = 200_000


def enumerate_copies(host, pattern, first_only=False):
    """All subgraphs of host isomorphic to pattern, as (vertices, edges) pairs.

    Distinct parallel-edge choices yield distinct copies, which is what
    edge-disjoint packing needs.  Results are deduplicated and sorted, so
    enumeration order is deterministic.  Raises BudgetExceeded when more
    than ENUMERATION_CAP copies are produced.
    """
    pverts = sorted(pattern.vertices, key=lambda v: (-pattern.degree(v), v))
    # per position: the pattern vertex, its degree, and its neighbours at
    # earlier positions (the ones already mapped) with their multiplicities
    plan = [
        (pv, pattern.degree(pv),
         [(u, len(pattern.edges_between(pv, u)))
          for u in pattern.neighbors(pv) if u in pverts[:i]])
        for i, pv in enumerate(pverts)
    ]
    pslots = [pattern.endpoints(eid) for eid in sorted(pattern.edges)]
    hadj = host._adj
    hdeg = host.degrees()
    hverts = sorted(hadj)
    copies = set()

    def vertex_maps(i, mapping, used):
        if i == len(plan):
            yield dict(mapping)
            return
        pv, need, anchors = plan[i]
        if anchors:
            candidates = sorted(hadj[mapping[anchors[0][0]]])
        else:
            candidates = hverts
        for w in candidates:
            if w in used or hdeg[w] < need:
                continue
            row = hadj[w]
            if all(len(row.get(mapping[u], ())) >= mult for u, mult in anchors):
                mapping[pv] = w
                used.add(w)
                yield from vertex_maps(i + 1, mapping, used)
                del mapping[pv]
                used.discard(w)

    def edge_choices(mapping):
        # one host edge id per pattern edge, parallel copies kept apart
        slots = [hadj[mapping[u]][mapping[v]] for u, v in pslots]
        chosen = {}

        def rec(j):
            if j == len(slots):
                yield frozenset(chosen.values())
                return
            for hid in slots[j]:
                if hid in chosen.values():
                    continue
                chosen[j] = hid
                yield from rec(j + 1)
                del chosen[j]

        yield from rec(0)

    for mapping in vertex_maps(0, {}, set()):
        vset = frozenset(mapping.values())
        for eset in edge_choices(mapping):
            copy = (vset, eset)
            if copy in copies:
                continue
            copies.add(copy)
            if first_only:
                return [copy]
            if len(copies) > ENUMERATION_CAP:
                raise BudgetExceeded(
                    f"more than {ENUMERATION_CAP} copies of pattern in host"
                )
    return sorted(copies, key=lambda c: (sorted(c[0]), sorted(c[1])))


def find_copy(host, pattern):
    """First copy of pattern in host, or None."""
    got = enumerate_copies(host, pattern, first_only=True)
    return got[0] if got else None


def enumerate_cycles(g):
    """All cycles of g (2-cycles from parallel pairs included), canonical.

    Each cycle starts at its smallest vertex and runs in the direction whose
    second vertex is the smaller; a 2-cycle lists its smaller edge id first.
    That makes (vertices, edges) the lexicographically smallest rotation or
    reflection.  Raises BudgetExceeded past ENUMERATION_CAP.  Intended for
    desk-scale hosts.
    """
    out = []

    def push(cycle):
        out.append(cycle)
        if len(out) > ENUMERATION_CAP:
            raise BudgetExceeded(f"more than {ENUMERATION_CAP} cycles in host")

    verts = sorted(g.vertices)
    for u in verts:
        for v in g.neighbors(u):
            if v < u:
                continue
            ids = g.edges_between(u, v)
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    push(Cycle((u, v), (ids[a], ids[b])))

    # simple cycles of length >= 3: root at the smallest vertex of the cycle
    for s in verts:
        path = [s]
        on_path = {s}
        path_edges = []

        def dfs(v):
            for u in g.neighbors(v):
                if u < s:
                    continue
                for eid in g.edges_between(v, u):
                    if path_edges and eid == path_edges[-1]:
                        continue
                    if u == s:
                        if len(path) >= 3 and path[1] < path[-1]:
                            push(Cycle(tuple(path), tuple(path_edges + [eid])))
                        continue
                    if u in on_path:
                        continue
                    path.append(u)
                    on_path.add(u)
                    path_edges.append(eid)
                    dfs(u)
                    path.pop()
                    on_path.discard(u)
                    path_edges.pop()

        dfs(s)
    return sorted(out, key=lambda c: (len(c), c.vertices, c.edges))


def connected_subsets(g):
    """All connected vertex subsets, grown from their smallest member."""
    out = []
    verts = sorted(g.vertices)
    for root in verts:
        # standard set-growing enumeration; every subset generated once
        stack = [(frozenset([root]), frozenset(u for u in verts if u < root))]
        while stack:
            subset, forbidden = stack.pop()
            out.append(subset)
            if len(out) > ENUMERATION_CAP:
                raise BudgetExceeded(f"more than {ENUMERATION_CAP} connected subsets")
            frontier = sorted(
                {
                    u
                    for v in subset
                    for u in g.neighbors(v)
                    if u not in subset and u not in forbidden
                }
            )
            banned = set(forbidden)
            for u in frontier:
                stack.append((subset | {u}, frozenset(banned)))
                banned.add(u)
    return out
