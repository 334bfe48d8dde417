"""Backtracking subgraph search and cycle enumeration for small patterns."""

import functools
from bisect import bisect_right
from itertools import product
from operator import and_

from .errors import BudgetExceeded
from .graph import Cycle, _peel

# The most copies, cycles or connected subsets one enumeration may produce,
# and the most vertex subsets an exhaustive theta search may scan.
ENUMERATION_CAP = 200_000


@functools.lru_cache(maxsize=32)
def _plan(pattern):
    """``enumerate_copies``'s (steps, pslots, Aut(pattern)) in positions.

    Positions are pattern vertices by falling degree, then id.  Step i is
    (degree, adjacent earlier positions, those with multiplicity above 1 as
    (position, multiplicity), earlier positions whose images lie below i's).
    """
    order = sorted(pattern.vertices, key=lambda v: (-pattern.degree(v), v))
    pos = {v: i for i, v in enumerate(order)}
    steps = []
    for i, v in enumerate(order):
        earlier = sorted((pos[u], len(ids)) for u, ids in pattern._adj[v].items() if pos[u] < i)
        steps.append((pattern.degree(v), [k for k, _ in earlier], [e for e in earlier if e[1] > 1], []))
    # an injective self-map keeping every multiplicity (>=) keeps m: an automorphism
    auts = [[pos[w] for w in images]
            for images in _vertex_maps(steps, pattern._adj, pattern.degrees(), order)]
    group = auts
    for i in range(len(order)):
        for j in {a[i] for a in group} - {i}:
            steps[j][3].append(i)
        group = [a for a in group if a[i] == i]
    return steps, [[pos[u] for u in pattern.endpoints(e)] for e in sorted(pattern.edges)], auts


def _vertex_maps(steps, hadj, hdeg, hverts):
    """Maps of a plan's positions into a host that keep its steps, in
    lexicographic order, each as one live list of images: copy to keep."""
    images = []

    def extend(i):
        if i == len(steps):
            yield images
            return
        need, anchors, multiple, lower = steps[i]
        candidates = hverts
        if anchors:
            candidates = sorted(functools.reduce(and_, (hadj[images[k]].keys() for k in anchors)))
        if lower:
            candidates = candidates[bisect_right(candidates, max(images[k] for k in lower)):]
        for w in candidates:
            if w not in images and hdeg[w] >= need and all(
                len(hadj[w][images[k]]) >= mult for k, mult in multiple
            ):
                images.append(w)
                yield from extend(i + 1)
                images.pop()

    return extend(0)


def enumerate_copies(host, pattern, first_only=False):
    """All subgraphs of host isomorphic to pattern, as (vertices, edges) pairs.

    Distinct parallel-edge choices yield distinct copies, which is what
    edge-disjoint packing needs.  Results are deduplicated and sorted, so
    enumeration order is deterministic.  Raises BudgetExceeded when more
    than ENUMERATION_CAP copies are produced.

    The maps phi o sigma, sigma in Aut(pattern), give one copy, so each
    copy is reached through one map (Grochow & Kellis, RECOMB 2007): for
    each position i in plan order, i's image lies below those of i's orbit
    under the stabiliser of the positions before i, and then i joins them.
    Only the lexicographically least map of each class keeps all these, and
    the search meets maps in that order, so ``first_only`` returns the copy
    the unbroken search finds first.  ``_plan`` caches plan, Aut and these
    conditions per pattern; parallel pattern edges still repeat copies,
    hence the set.
    """
    steps, pslots, _ = _plan(pattern)
    hadj = host._adj
    copies = set()
    for images in _vertex_maps(steps, hadj, host.degrees(), sorted(hadj)):
        vset = frozenset(images)
        # one host edge id per pattern edge, parallel copies kept apart
        for ids in product(*(hadj[images[a]][images[b]] for a, b in pslots)):
            copy = (vset, frozenset(ids))
            if len(copy[1]) < len(ids) or copy in copies:
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

    # the 2-core of g less the roots done so far: it holds every cycle left
    deg = g.core_degrees()

    def steps(v):  # the (neighbour, edge id) pairs from v into that core
        return ((u, e) for u in g.neighbors(v) if u in deg for e in g.edges_between(v, u))

    # root each cycle at its smallest vertex, a DFS with one iterator of
    # steps per path vertex; a 2-cycle closes on its larger edge id
    for s in sorted(g.vertices):
        if s not in deg:
            continue
        path = [s]
        on_path = {s}
        path_edges = []
        stack = [steps(s)]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                if path_edges:
                    on_path.discard(path.pop())
                    path_edges.pop()
                continue
            u, eid = step
            if path_edges and eid == path_edges[-1]:
                continue
            if u == s:
                if path[1] < path[-1] if len(path) > 2 else eid > path_edges[0]:
                    push(Cycle(tuple(path), tuple(path_edges + [eid])))
                continue
            if u in on_path:
                continue
            path.append(u)
            on_path.add(u)
            path_edges.append(eid)
            stack.append(steps(u))
        _peel(g._adj, deg, [s])  # every cycle through s is out
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
