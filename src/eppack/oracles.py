"""Exact desk-scale solvers used as ground truth.

Every solver either returns a provably optimal value with a verifying
witness or raises BudgetExceeded; it never approximates silently.
"""

import os
from dataclasses import dataclass
from itertools import accumulate

from .certificates import (
    CoverCertificate,
    PackingCertificate,
    PatternWitness,
)
from .errors import BudgetExceeded, InvalidParameter, InvariantViolated
from .graph import Cycle, Mode, _cycle_along
from .iso import enumerate_copies, find_copy

DEFAULT_NODE_CAP = 10_000_000


def default_budget():
    text = os.environ.get("EP_BUDGET", str(DEFAULT_NODE_CAP))
    try:
        return int(text)
    except ValueError:
        raise InvalidParameter(f"EP_BUDGET must be an integer, got {text!r}") from None


@dataclass(frozen=True)
class ExactResult:
    value: int
    witness: object
    explored: int


@dataclass(frozen=True)
class Found:  # a child that ends a _search with its value
    value: object


def _search(roots, expand):
    """Depth-first search from ``roots`` on a stack of child iterators, so
    its depth is not bounded by Python's recursion limit.  ``expand(*node)``
    yields a node's children lazily, each once its elder sibling's subtree
    is done.  Returns (the first Found child's value or None, nodes
    expanded); past EP_BUDGET nodes it raises BudgetExceeded."""
    cap = default_budget()
    nodes = 0
    stack = [iter(roots)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif isinstance(child, Found):
            return child.value, nodes
        else:
            nodes += 1
            if nodes > cap:
                raise BudgetExceeded(f"search exceeded {cap} nodes")
            stack.append(expand(*child))
    return None, nodes


# -- cycle helpers ------------------------------------------------------------


def _chordless_cycles(h, s, t=None):
    """Chordless cycles through vertex s, in DFS order.

    Without t the 2-cycles come first, one per neighbour joined by parallel
    edges, on its two smallest ids, in ascending neighbour order.  Then each
    cycle of length 3 or more comes once, in the direction whose second
    vertex is the smaller neighbour of s, and parallel edges count as one.
    With t only the cycles of length 3 or more through the edge s-t come,
    as paths from s to t.
    """
    adj = h._adj
    out = [] if t is not None else [
        Cycle((s, a), tuple(ids[:2])) for a, ids in sorted(adj[s].items()) if len(ids) > 1
    ]
    for a in sorted(adj[s]):
        if a == t:
            continue
        # a DFS with one iterator of sorted neighbours per path vertex past s
        path, stack = [s, a], [iter(sorted(adj[a]))]
        while stack:
            w = next(stack[-1], None)
            if w is None:
                stack.pop()
                path.pop()
                continue
            # w may touch the path only at its predecessor, and s only when
            # it closes the cycle: at t, or without t in the one direction
            if w in path or any(x in adj[w] for x in path[1:-1]):
                continue
            if s in adj[w]:
                if w == t if t is not None else path[1] < w:
                    out.append(_cycle_along(adj, path + [w]))
                continue
            path.append(w)
            stack.append(iter(sorted(adj[w])))
    return out


def _core_rank(h, deg):
    """h's cycle rank m - n + components, read off its 2-core degrees ``deg``.

    Peeling keeps the rank, and each component of h keeps a connected core
    or none, so only the core's components are counted.
    """
    adj, seen, comps = h._adj, set(), 0
    for s in deg:
        if s not in seen:
            comps += 1
            seen.add(s)
            stack = [s]
            while stack:
                for u in adj[stack.pop()]:
                    if u not in seen and u in deg:
                        seen.add(u)
                        stack.append(u)
    return sum(deg.values()) // 2 - len(deg) + comps


def _pack_bound(h, deg, mode, shortest=None):
    """Upper bound on the size of a cycle packing of h, whose 2-core is ``deg``.

    The members lie in the 2-core (see ``MultiGraph.core_degrees``) and are
    independent in the cycle space, so there are at most cycle-rank of
    them, and each has at least ``shortest`` vertices or edges of the core:
    h's girth if the caller knows it, else 2 with a parallel pair and 3
    without.  In edge mode the members' union has only even degrees, so
    each odd-degree vertex of the core leaves one of its edges unused and
    at most m_core - odd_core/2 edges are packed.

    A nonempty core has rank at least m_core - n_core + 1, so the
    components are counted only when the packing term exceeds that.  A
    forest gets 0: the searches enter each node with acc <= best, so this
    bound alone prunes every forest.
    """
    n_core, m_core = len(deg), sum(deg.values()) // 2
    if not n_core:
        return 0
    if shortest is None:
        shortest = 2 if len(h.underlying_pairs()) < h.m else 3
    if mode is Mode.VERTEX:
        room = n_core // shortest
    else:
        odd = sum(d & 1 for d in deg.values())
        room = (m_core - odd // 2) // shortest
    if room <= m_core - n_core + 1:
        return room
    return min(room, _core_rank(h, deg))


# -- exact cycle packing / covering -------------------------------------------


def exact_vpack_cycles(g):
    """Maximum number of vertex-disjoint cycles, with witness."""
    best = [0, []]

    def expand(h, acc, members):
        deg = h.core_degrees()
        if acc + _pack_bound(h, deg, Mode.VERTEX) <= best[0]:
            return
        c = h._shortest_cycle(deg)
        if acc + 1 > best[0]:
            # any single extra cycle already improves; record greedily
            best[0], best[1] = acc + 1, list(members) + [c]
        v = min(c.vertex_set)
        for p in _chordless_cycles(h, v):
            yield h.delete_vertices(p.vertex_set), acc + 1, members + [p]
        yield h.delete_vertices({v}), acc, members

    _, nodes = _search([(g, 0, [])], expand)
    witness = PackingCertificate(
        Mode.VERTEX, tuple(PatternWitness.from_cycle(c) for c in best[1])
    )
    return ExactResult(best[0], witness, nodes)


def _vcover_bound(h, deg):
    """Fewest 2-core vertices whose core degrees ``deg`` less one sum to h's
    cycle rank."""
    rank = _core_rank(h, deg)
    freed = accumulate(sorted((d - 1 for d in deg.values()), reverse=True), initial=0)
    return next(size for size, total in enumerate(freed) if total >= rank)


def exact_vcover_cycles(g):
    """Minimum feedback vertex set, with witness.

    Deleting a vertex of degree d lowers the cycle rank m - n + components
    by at most d - 1 (d edges go, and its component splits into at most d),
    and a forest has rank 0.  A cover meets the 2-core in a cover of it, the
    core's rank is h's (see ``MultiGraph.core_degrees``), and degrees only
    fall as vertices go, so ``_vcover_bound`` vertices are needed.  The
    search tries sizes from g's bound up and drops each subtree whose bound
    exceeds the size left: neither can succeed, so the first cover found
    stays the same.
    """
    def expand(h, size_left, chosen):
        deg = h.core_degrees()
        if _vcover_bound(h, deg) > size_left:
            return
        if not deg:
            yield Found(chosen)  # a forest
            return
        c = h._shortest_cycle(deg)
        for v in sorted(c.vertex_set):
            yield h.delete_vertices({v}), size_left - 1, chosen + [v]

    sizes = range(_vcover_bound(g, g.core_degrees()), g.n + 1)
    got, nodes = _search([(g, size, []) for size in sizes], expand)
    if got is None:
        raise InvariantViolated("unreachable: deleting all vertices leaves a forest")
    return ExactResult(len(got), CoverCertificate(Mode.VERTEX, frozenset(got)), nodes)


def exact_epack_cycles(g):
    """Maximum number of edge-disjoint cycles, with witness."""
    # greedy shortest-cycle packing seeds the incumbent so pruning bites
    # from the first branch
    residue, seed = g, []
    while (c := residue.shortest_cycle()) is not None:
        seed.append(c)
        residue = residue.delete_edges(c.edge_set)
    best = [len(seed), seed]

    def expand(h, acc, members):
        deg = h.core_degrees()
        if acc + _pack_bound(h, deg, Mode.EDGE) <= best[0]:
            return
        c = h._shortest_cycle(deg)
        # a 2-cycle means a parallel pair and a 3-cycle none, so below
        # length 4 the bound above already divided by len(c)
        if len(c) > 3 and acc + _pack_bound(h, deg, Mode.EDGE, len(c)) <= best[0]:
            return
        if acc + 1 > best[0]:
            best[0], best[1] = acc + 1, list(members) + [c]
        eid = min(c.edge_set)
        if len(c) == 2:
            # c is eid with its smallest parallel mate; the 2-cycles with the
            # other mates leave isomorphic subproblems, which cannot beat the
            # incumbent this one leaves
            branches = [c]
        else:
            # h is simple, as c is not a 2-cycle.  Restricting to chordless
            # cycles is sound: a member through eid with a chord
            # re-decomposes, with the chord's owner (or the chord alone), into
            # as many edge-disjoint cycles, one of them a shorter member
            # through eid
            branches = sorted(
                _chordless_cycles(h, *h.endpoints(eid)),
                key=lambda p: (len(p), p.vertices, p.edges),
            )
        for p in branches:
            yield h.delete_edges(p.edge_set), acc + 1, members + [p]
        yield h.delete_edges({eid}), acc, members

    _, nodes = _search([(g, 0, [])], expand)
    witness = PackingCertificate(
        Mode.EDGE, tuple(PatternWitness.from_cycle(c) for c in best[1])
    )
    return ExactResult(best[0], witness, nodes)


def exact_ecover_cycles(g):
    """Minimum edge set meeting all cycles: closed form m - n + components.

    The witness is the co-forest of a spanning forest; no search is needed,
    so this oracle is unbudgeted.
    """
    forest = set(g.spanning_forest_edges())
    extra = frozenset(eid for eid in g.edges if eid not in forest)
    witness = CoverCertificate(Mode.EDGE, extra)
    return ExactResult(len(extra), witness, 0)


# -- fixed-subgraph packing / covering ----------------------------------------


def _copies_with_elements(g, pattern, mode):
    copies = enumerate_copies(g, pattern)
    out = []
    for vs, es in copies:
        elems = vs if mode is Mode.VERTEX else es
        out.append((PatternWitness(vs, es), frozenset(elems)))
    return out


def _greedy_disjoint(sets):
    """Indices of the sets a first-fit pass keeps pairwise disjoint."""
    used = set()
    picked = []
    for i, s in enumerate(sets):
        if not (s & used):
            picked.append(i)
            used |= s
    return picked


def exact_pack_subgraph(g, pattern, mode):
    """Maximum A_x-disjoint packing of copies of a fixed pattern.

    Branches on a least-covered element: either some member contains it
    (one branch per candidate copy) or no member does.
    """
    copies = _copies_with_elements(g, pattern, mode)
    per_copy = len(pattern.vertices) if mode is Mode.VERTEX else pattern.m
    if mode is Mode.EDGE and per_copy == 0:
        raise InvalidParameter("edge-mode packing needs a nontrivial pattern")
    seed = [copies[i][0] for i in _greedy_disjoint([elems for _, elems in copies])]
    best = [len(seed), seed]

    def expand(available, acc, members):
        if acc > best[0]:
            best[0], best[1] = acc, list(members)
        if not available:
            return
        counts = {}
        for _, elems in available:
            for e in elems:
                counts[e] = counts.get(e, 0) + 1
        room = len(counts) // per_copy if per_copy else len(available)
        if acc + min(room, len(available)) <= best[0]:
            return
        e = min(sorted(counts), key=lambda x: counts[x])
        for w, elems in available:
            if e not in elems:
                continue
            yield [c for c in available if not (c[1] & elems)], acc + 1, members + [w]
        yield [c for c in available if e not in c[1]], acc, members

    _, nodes = _search([(copies, 0, [])], expand)
    return ExactResult(best[0], PackingCertificate(mode, tuple(best[1])), nodes)


def exact_cover_subgraph(g, pattern, mode):
    """Minimum A_x hitting set destroying all copies of a fixed pattern."""
    copies = _copies_with_elements(g, pattern, mode)
    # every copy has pattern.n vertices and pattern.m edges: no set holds another
    elem_sets = sorted(set(elems for _, elems in copies), key=sorted)

    def expand(sets, size_left, hit):
        if not sets:
            yield Found(hit)
            return
        if len(_greedy_disjoint(sets)) > size_left:
            return
        target = min(sets, key=lambda s: (len(s), sorted(s)))
        for x in sorted(target):
            yield [s for s in sets if x not in s], size_left - 1, hit | {x}

    sizes = range(len(_greedy_disjoint(elem_sets)), len(g.elements(mode)) + 1)
    got, nodes = _search([(elem_sets, size, frozenset()) for size in sizes], expand)
    if got is None:
        raise InvariantViolated("unreachable: hitting every copy eventually succeeds")
    return ExactResult(len(got), CoverCertificate(mode, got), nodes)


# -- greedy subgraph duality ---------------------------------------------------


def greedy_subgraph_ep(g, pattern, mode):
    """Maximal greedy packing of pattern copies plus the induced cover.

    The cover is the union of the members' elements; maximality makes it a
    valid cover of size exactly |packing| * |A_x(pattern)|.
    """
    if mode is Mode.EDGE and pattern.m == 0:
        raise InvalidParameter("edge mode needs a nontrivial pattern")
    members = []
    residue = g
    while True:
        got = find_copy(residue, pattern)
        if got is None:
            break
        w = PatternWitness(got[0], got[1])
        members.append(w)
        residue = residue.delete(w.elements(mode), mode)
    cover_elems = frozenset().union(*(w.elements(mode) for w in members))
    return (
        PackingCertificate(mode, tuple(members)),
        CoverCertificate(mode, cover_elems),
    )
