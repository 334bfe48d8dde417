"""Independent brute-force reference implementations for the tests.

These deliberately avoid the package's search code paths: subset
enumeration and itertools only, so oracle bugs cannot hide behind shared
logic.
"""

import itertools
from collections import deque

from hypothesis import strategies as st

from eppack.cycles import ReductionTrace, Suppress
from eppack.certificates import (
    CoverCertificate,
    Diagnostics,
    EPOutcome,
    PackingCertificate,
    PatternWitness,
    QualityReport,
)
from eppack.decomp import Separation, _td_from_elimination, validate_td
from eppack.graph import Cycle, Mode, MultiGraph, postorder, subtree_unions
from eppack.errors import BudgetExceeded, InvalidDecomposition, InvariantViolated
from eppack.gadgets import Gadget, thicken
from eppack.iso import ENUMERATION_CAP, enumerate_cycles
from eppack.oracles import ExactResult
from eppack.rng import SplitMix64
from eppack.treepart import tp_width
from eppack.trees import SubtreeFamily, gallai, rs_selection


def bf_vcover_cycles(g):
    """Smallest vertex set whose removal leaves a forest, by enumeration."""
    verts = sorted(g.vertices)
    for size in range(len(verts) + 1):
        for comb in itertools.combinations(verts, size):
            if g.delete_vertices(comb).is_forest():
                return size
    raise AssertionError("unreachable")


def bf_ecover_cycles(g):
    edges = sorted(g.edges)
    for size in range(len(edges) + 1):
        for comb in itertools.combinations(edges, size):
            if g.delete_edges(comb).is_forest():
                return size
    raise AssertionError("unreachable")


def _max_disjoint(sets):
    """Largest pairwise-disjoint subfamily, plain recursion."""
    best = 0

    def rec(i, used, acc):
        nonlocal best
        if acc + len(sets) - i <= best:
            return
        if i == len(sets):
            best = max(best, acc)
            return
        if not (sets[i] & used):
            rec(i + 1, used | sets[i], acc + 1)
        rec(i + 1, used, acc)

    rec(0, frozenset(), 0)
    return best


def _pairs(g):
    """g with one edge per adjacent pair, and the number of edges of each pair.

    Parallel edges are interchangeable, so a cycle of three or more vertices
    is a cycle of that simple graph, and any others are 2-cycles of one pair.
    Enumerating g's cycles instead would list each long cycle once per
    choice of parallel edges.
    """
    mult = {}
    for u, v in g.edges.values():
        mult[frozenset((u, v))] = mult.get(frozenset((u, v)), 0) + 1
    return MultiGraph.from_edges(g.vertices, [tuple(sorted(p)) for p in mult]), mult


def bf_vpack_cycles(g):
    """Vertex-disjoint cycles: one vertex set per long cycle, and one 2-cycle
    for each pair with parallel edges."""
    simple, mult = _pairs(g)
    sets = {c.vertex_set for c in enumerate_cycles(simple)}
    sets |= {p for p, m in mult.items() if m > 1}
    return _max_disjoint(sorted(sets, key=sorted))


def bf_epack_cycles(g):
    """Edge-disjoint cycles: a pair of m parallel edges has room for m.

    A long cycle takes one edge of each of its pairs, and a 2-cycle two of
    one pair; since parallel edges are interchangeable, a packing is a
    choice of how often to take each, within every pair's room (the 2-cycles
    of a pair are its fixed id pairs (1st, 2nd), (3rd, 4th), ...).
    """
    simple, mult = _pairs(g)
    uses = [{p: 2} for p, m in mult.items() if m > 1]
    uses += [{frozenset(simple.endpoints(e)): 1 for e in c.edges}
             for c in enumerate_cycles(simple)]
    best = 0

    def rec(i, room, acc):
        nonlocal best
        most = [min(room[p] // u for p, u in use.items()) for use in uses[i:]]
        if acc + min(sum(most), sum(room.values()) // 2) <= best:
            return
        if i == len(uses):
            best = acc
            return
        for times in range(most[0], -1, -1):
            left = dict(room)
            for p, u in uses[i].items():
                left[p] -= times * u
            rec(i + 1, left, acc + times)

    rec(0, mult, 0)
    return best


def bf_min_hitting(universe, sets):
    """Smallest subset of the universe meeting every set."""
    universe = sorted(universe)
    for size in range(len(universe) + 1):
        for comb in itertools.combinations(universe, size):
            chosen = set(comb)
            if all(s & chosen for s in sets):
                return size
    raise AssertionError("unreachable")


def from_networkx(nxg):
    """Convert a simple networkx graph to the package representation."""
    nodes = sorted(nxg.nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    edges = [(pos[u], pos[v]) for u, v in nxg.edges]
    return MultiGraph.from_edges(range(len(nodes)), edges)


@st.composite
def multigraphs(draw, max_n=10, max_pairs=14, simple=False, min_n=1, min_pairs=0):
    """Loopless graphs with scattered vertex ids and unordered edge ids;
    unless ``simple``, a drawn pair may come in up to three parallel copies.
    ``min_pairs`` applies when there are at least two vertices."""
    verts = draw(st.lists(st.integers(0, 40), min_size=min_n, max_size=max_n, unique=True))
    pairs = []
    if len(verts) > 1:
        ends = st.sampled_from(verts)
        pair = st.tuples(ends, ends).filter(lambda uv: uv[0] != uv[1])
        if simple:
            pairs = draw(st.lists(pair, min_size=min_pairs, max_size=max_pairs,
                                  unique_by=frozenset))
        else:
            for uv, copies in draw(st.lists(st.tuples(pair, st.integers(1, 3)),
                                            min_size=min_pairs, max_size=max_pairs)):
                pairs += [uv] * copies
    eids = draw(st.lists(st.integers(0, 4 * max_pairs), min_size=len(pairs),
                         max_size=len(pairs), unique=True))
    return MultiGraph(verts, dict(zip(eids, pairs)))


def ref_gnp(n, p, seed):
    """``gen.gnp`` drawn one ``random()`` call per vertex pair, row by row."""
    rng = SplitMix64(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return MultiGraph.from_edges(range(n), edges)


def random_multigraph(rng, max_n=9, max_m=16):
    """Seeded loopless multigraph with non-contiguous vertex and edge ids.

    About one edge in four repeats an earlier pair, so parallel edges are
    common; ``rng`` is an ``eppack.rng.SplitMix64``.
    """
    n = rng.randint(1, max_n)
    verts = sorted(rng.sample(range(3 * max_n), n))
    pairs = []
    for _ in range(rng.randint(0, max_m) if n > 1 else 0):
        if pairs and rng.random() < 0.25:
            pairs.append(pairs[rng.randrange(len(pairs))])
        else:
            u, v = rng.sample(verts, 2)
            pairs.append((u, v))
    eids = sorted(rng.sample(range(3 * max_m + 3), len(pairs)))
    return MultiGraph(verts, dict(zip(eids, pairs)))


# -- reference kernels ----------------------------------------------------------
#
# Plain versions of ``reduce_low_degree`` (a rescan and a full rebuild per
# step), ``shortest_cycle`` (an uncut BFS per edge) and of the canonical form
# of a cycle (every rotation in both directions).  The tests require the
# package's worklist and cut-off kernels, and the cycles that
# ``enumerate_cycles`` yields, to match what these return.


def ref_canonical_cycle(vertices, edges):
    """Rotate/reflect so the vertex sequence is lexicographically smallest."""
    n = len(vertices)
    best = None
    for start in range(n):
        for step in (1, -1):
            vs = tuple(vertices[(start + step * i) % n] for i in range(n))
            if step == 1:
                es = tuple(edges[(start + i) % n] for i in range(n))
            else:
                es = tuple(edges[(start - 1 - i) % n] for i in range(n))
            if best is None or (vs, es) < best:
                best = (vs, es)
    return Cycle(best[0], best[1])


def ref_reduce_low_degree(g):
    made_by = {}
    h = g
    next_eid = g.next_edge_id()
    while True:
        degs = h.degrees()
        target = None
        for v in sorted(degs):
            if degs[v] <= 1:
                target = ("drop", v)
                break
            if degs[v] == 2 and len(nbrs := h.neighbors(v)) == 2:
                (e1,), (e2,) = (h.edges_between(v, u) for u in nbrs)
                target = ("suppress", v, min(e1, e2), max(e1, e2))
                break
        if target is None:
            return h, ReductionTrace(next_eid, made_by)
        if target[0] == "drop":
            h = h.delete_vertices({target[1]})
        else:
            _, v, e1, e2 = target
            a, b = h.endpoints(e1)
            x = a if b == v else b
            a, b = h.endpoints(e2)
            z = a if b == v else b
            rep = next_eid
            next_eid += 1
            made_by[rep] = Suppress(v, e1, e2, x, z)
            edges = {
                eid: uv for eid, uv in h.edges.items() if eid not in (e1, e2)
            }
            edges[rep] = (x, z)
            h = type(h)(h.vertices - {v}, edges)


def _ref_bfs_path(g, source, target, banned_edge):
    prev = {source: (None, None)}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if v == target:
            break
        for u in g.neighbors(v):
            if u in prev:
                continue
            ids = [e for e in g.edges_between(v, u) if e != banned_edge]
            if not ids:
                continue
            prev[u] = (v, min(ids))
            queue.append(u)
    if target not in prev:
        return None
    verts, eids = [target], []
    v = target
    while prev[v][0] is not None:
        p, e = prev[v]
        eids.append(e)
        verts.append(p)
        v = p
    verts.reverse()
    eids.reverse()
    return verts, eids


def ref_shortest_cycle(g):
    best = None

    def consider(verts, eids):
        nonlocal best
        cand = ref_canonical_cycle(verts, eids)
        key = (len(cand), cand.vertices, cand.edges)
        if best is None or key < (len(best), best.vertices, best.edges):
            best = cand

    for u in sorted(g.vertices):
        for v in g.neighbors(u):
            if v < u:
                continue
            ids = g.edges_between(u, v)
            if len(ids) >= 2:
                consider([u, v], sorted(ids)[:2])
    if best is not None:
        return best
    for eid in sorted(g.edges):
        u, v = g.edges[eid]
        found = _ref_bfs_path(g, u, v, eid)
        if found is None:
            continue
        verts, eids = found
        if best is not None and len(eids) + 1 > len(best):
            continue
        consider(verts, eids + [eid])
    return best


def replay(trace, g):
    """Reproduce the reduced graph from the original and ``trace``: make the
    suppressions in ``made_by`` order, then peel vertices of degree <= 1.

    A deletion only removes edges at the deleted vertex, which no later
    suppression names, and suppressing keeps every other vertex's degree; so
    the deletions can all come last, and peeling is order-free."""
    vertices, edges = set(g.vertices), dict(g.edges)
    for rep, ev in trace.made_by.items():
        del edges[ev.edge_a], edges[ev.edge_b]
        vertices.remove(ev.vertex)
        edges[rep] = (ev.x, ev.z)
    h = type(g)(vertices, edges)
    while leaves := {v for v, d in h.degrees().items() if d <= 1}:
        h = h.delete_vertices(leaves)
    return h


# -- reference decompositions ------------------------------------------------------
#
# The min-fill order by a full rescan per step, ``validate_td`` by a scan of
# every bag per vertex, and the subset DP with one DFS per (mask, vertex) pair
# and masks taken by size.  The package's heap, index and component versions
# must return exactly what these return.


def ref_min_fill_order(g):
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    order = []
    remaining = set(g.vertices)
    while remaining:
        best = None
        for v in sorted(remaining):
            nbrs = adj[v] & remaining
            fill = sum(
                1
                for a in nbrs
                for b in nbrs
                if a < b and b not in adj[a]
            )
            key = (fill, len(nbrs), v)
            if best is None or key < best[0]:
                best = (key, v)
        v = best[1]
        nbrs = adj[v] & remaining
        for a in nbrs:
            adj[a].update(nbrs - {a})
        order.append(v)
        remaining.discard(v)
    return order


def ref_validate_td(g, td):
    if set(td.bags) != set(td.tree.vertices):
        return Diagnostics([("bags-vs-tree-mismatch",)])
    if td.tree.vertices and (not td.tree.is_forest() or not td.tree.is_connected()):
        return Diagnostics([("decomposition-tree-not-a-tree",)])
    foreign = set().union(*td.bags.values()) - g.vertices
    if foreign:
        return Diagnostics([("bag-vertex-not-in-host", sorted(foreign))])
    missing = g.vertices - set().union(*td.bags.values())
    if missing:
        return Diagnostics([("vertex-in-no-bag", sorted(missing))])
    for eid in sorted(g.edges):
        u, v = g.endpoints(eid)
        if not any(u in b and v in b for b in td.bags.values()):
            return Diagnostics([("edge-in-no-bag", eid, (u, v))])
    for v in sorted(g.vertices):
        nodes = {t for t, b in td.bags.items() if v in b}
        if nodes and not td.tree.induced(nodes).is_connected():
            return Diagnostics([("bags-of-vertex-disconnected", v)])
    return Diagnostics()


def ref_subset_dp_td(g):
    """``decomp.exact_elimination_td`` as a full bottom-up subset DP: every
    mask in increasing order, which puts S - i before S.  Frozen from the
    package so the top-down search can be held to it at n up to 15, where
    ``ref_exact_elimination_td``'s per-pair BFS is too slow."""
    n = g.n
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [0] * (1 << n)  # nbrs[s]: the neighbours of the vertices in s
    for v in verts:
        for u in g.neighbors(v):
            nbrs[1 << index[v]] |= 1 << index[u]
    for s in range(1, 1 << n):
        low = s & -s
        nbrs[s] = nbrs[low] | nbrs[s ^ low]
    cost = [-1] * (1 << n)
    choice = [0] * (1 << n)
    for mask in range(1, 1 << n):
        best = n << 4  # (w << 4) | i orders as (w, i): w < n, i < 16
        rest = mask
        while rest:
            comp = rest & -rest
            grown = comp | nbrs[comp] & mask
            while grown != comp:
                comp = grown
                grown = comp | nbrs[comp] & mask
            rest ^= comp
            q = (nbrs[comp] & ~mask).bit_count()
            while comp:
                b = comp & -comp
                comp ^= b
                w = cost[mask ^ b]
                key = ((w if w > q else q) << 4) | (b.bit_length() - 1)
                if key < best:
                    best = key
        cost[mask] = best >> 4
        choice[mask] = best & 15
    order = []
    mask = (1 << n) - 1
    while mask:
        i = choice[mask]
        order.append(verts[i])
        mask ^= 1 << i
    order.reverse()
    return _td_from_elimination(g, order)


def ref_exact_elimination_td(g):
    n = g.n
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    nbr_mask = [0] * n
    for v in verts:
        for u in g.neighbors(v):
            nbr_mask[index[v]] |= 1 << index[u]

    def q(i, emask):
        """Vertices outside emask reachable from i through eliminated ones."""
        seen = 1 << i
        stack = [i]
        out = 0
        while stack:
            x = stack.pop()
            cand = nbr_mask[x] & ~seen
            seen |= cand
            rest = cand
            while rest:
                b = rest & -rest
                rest ^= b
                j = b.bit_length() - 1
                if (emask >> j) & 1:
                    stack.append(j)
                else:
                    out |= b
        return bin(out).count("1")

    full = (1 << n) - 1
    cost = {0: -1}
    choice = {}
    masks_by_size = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        masks_by_size[bin(mask).count("1")].append(mask)
    for size in range(1, n + 1):
        for mask in masks_by_size[size]:
            best = None
            rest = mask
            while rest:
                b = rest & -rest
                rest ^= b
                i = b.bit_length() - 1
                prev = mask ^ b
                w = max(cost[prev], q(i, prev))
                if best is None or w < best[0]:
                    best = (w, i)
            cost[mask] = best[0]
            choice[mask] = best[1]
    order_idx = []
    mask = full
    while mask:
        i = choice[mask]
        order_idx.append(i)
        mask ^= 1 << i
    order_idx.reverse()
    return _td_from_elimination(g, [verts[i] for i in order_idx])


# -- reference edge-packing search ---------------------------------------------------
#
# ``exact_epack_cycles`` with its enumerator as they were before the parity
# term: the bound is min(cycle rank, m // shortest) with shortest 2 or 3 at
# entry and the girth after the node's ``shortest_cycle``.  The package's
# search must return the same value and witness with no more nodes.


def _ref_chordless_cycles_through_edge(g, eid):
    u, v = g.endpoints(eid)
    out = []
    for other in g.edges_between(u, v):
        if other != eid:
            out.append(Cycle((u, v), (other, eid)))
    uv_simple = len(g.edges_between(u, v)) == 1

    def dfs(path, eids):
        last = path[-1]
        for w in sorted(g.neighbors(last)):
            if w in path:
                continue
            between = g.edges_between(last, w)
            if len(between) != 1:
                continue
            if w == v:
                if len(path) >= 2 and uv_simple and not any(
                    g.edges_between(x, v) for x in path[1:-1]
                ):
                    out.append(
                        Cycle(tuple(path) + (v,), tuple(eids) + (between[0], eid))
                    )
                continue
            if any(g.edges_between(x, w) for x in path[:-1]):
                continue
            dfs(path + [w], eids + [between[0]])

    dfs([u], [])
    return sorted(out, key=lambda c: (len(c), c.vertices, c.edges))


def _ref_cycle_space_dim(g):
    return g.m - g.n + len(g.components())


def _ref_pack_upper_bound(g):
    dim = _ref_cycle_space_dim(g)
    has_parallel = any(
        len(g.edges_between(u, w)) >= 2 for u, w in g.underlying_pairs()
    )
    shortest = 2 if has_parallel else 3
    return min(dim, g.m // shortest)


def ref_exact_epack_cycles(g):
    explored = 0
    residue, seed = g, []
    while True:
        c = residue.shortest_cycle()
        if c is None:
            break
        seed.append(c)
        residue = residue.delete_edges(c.edge_set)
    best = [len(seed), seed]

    def rec(h, acc, members):
        nonlocal explored
        explored += 1
        if acc + _ref_pack_upper_bound(h) <= best[0]:
            return
        c = h.shortest_cycle()
        if c is None:
            if acc > best[0]:
                best[0], best[1] = acc, list(members)
            return
        if acc + min(_ref_cycle_space_dim(h), h.m // len(c)) <= best[0]:
            return
        if acc + 1 > best[0]:
            best[0], best[1] = acc + 1, list(members) + [c]
        eid = min(c.edge_set)
        for p in _ref_chordless_cycles_through_edge(h, eid):
            rec(h.delete_edges(p.edge_set), acc + 1, members + [p])
        rec(h.delete_edges({eid}), acc, members)

    rec(g, 0, [])
    witness = PackingCertificate(
        Mode.EDGE, tuple(PatternWitness.from_cycle(c) for c in best[1])
    )
    return ExactResult(best[0], witness, explored)


# -- reference vertex-packing search --------------------------------------------------
#
# ``exact_vpack_cycles`` as it was before its bound peeled to the 2-core:
# ``ref_pack_bound`` is the cycle rank (one ``components()`` pass) against
# the whole graph's n (vertex mode) or m - odd/2 (edge mode) over the
# shortest cycle length, and each child is a full rebuild.  The package's
# search must return the same value and witness with no more nodes.


def ref_pack_bound(g, mode, shortest=None):
    dim = g.m - g.n + len(g.components())
    if shortest is None:
        shortest = 2 if len(g.underlying_pairs()) < g.m else 3
    if mode is Mode.VERTEX:
        return min(dim, g.n // shortest)
    odd = sum(g.degree(v) & 1 for v in g.vertices)
    return min(dim, (g.m - odd // 2) // shortest)


def _ref_chordless_cycles(g, s):
    """Chordless cycles of length 3 or more through s, each in one direction."""
    out = []

    def close(path):
        steps = zip(path, path[1:] + path[:1])
        return Cycle(tuple(path), tuple(g.edges_between(a, b)[0] for a, b in steps))

    def extend(path):
        for w in g.neighbors(path[-1]):
            if w in path or any(g.edges_between(x, w) for x in path[1:-1]):
                continue
            if g.edges_between(s, w):
                if path[1] < w:
                    out.append(close(path + [w]))
                continue
            extend(path + [w])

    for a in g.neighbors(s):
        extend([s, a])
    return out


def _ref_without_vertices(g, xs):
    return MultiGraph(
        g.vertices - xs,
        {eid: uv for eid, uv in g.edges.items() if not xs.intersection(uv)},
    )


def ref_exact_vpack_cycles(g):
    explored = 0
    best = [0, []]

    def rec(h, acc, members):
        nonlocal explored
        explored += 1
        if acc + ref_pack_bound(h, Mode.VERTEX) <= best[0]:
            return
        c = h.shortest_cycle()
        if c is None:
            if acc > best[0]:
                best[0], best[1] = acc, list(members)
            return
        if acc + 1 > best[0]:
            best[0], best[1] = acc + 1, list(members) + [c]
        v = min(c.vertex_set)
        two_cycles = [
            Cycle((v, u), tuple(h.edges_between(v, u)[:2]))
            for u in h.neighbors(v)
            if len(h.edges_between(v, u)) > 1
        ]
        for p in two_cycles + _ref_chordless_cycles(h, v):
            rec(_ref_without_vertices(h, p.vertex_set), acc + 1, members + [p])
        rec(_ref_without_vertices(h, {v}), acc, members)

    rec(g, 0, [])
    witness = PackingCertificate(
        Mode.VERTEX, tuple(PatternWitness.from_cycle(c) for c in best[1])
    )
    return ExactResult(best[0], witness, explored)


# -- reference inductive edge cover ---------------------------------------------------
#
# ``inductive_edge_cover`` with every round's postorder scan starting at the
# first node.  The package resumes at the node the last round found and must
# return the same outcome.  The caller passes a valid partition and a
# connected detector with a degree bound.


def ref_theta2_find(g):
    """``theta_detector(2).find`` as it was: a shortest cycle split into its
    first vertex and the rest, with the two edges between them and the
    spanning edges of the rest."""
    c = g.shortest_cycle()
    if c is None:
        return None
    a = frozenset([c.vertices[0]])
    b = frozenset(c.vertices[1:])
    cross = frozenset(c.edges[:1] + c.edges[-1:])
    ew = set(g.induced(b).spanning_forest_edges())
    return PatternWitness(a | b, cross | frozenset(ew))


def ref_inductive_edge_cover(g, tp, det, k):
    r = tp_width(g, tp)
    d = det.delta_tilde_bound
    children = tp.tree.rooted(tp.root)
    post = postorder(children, tp.root)
    subtree_vs = subtree_unions(children, post, tp.bags)
    members = []
    cut_all = set()
    residue = g
    while len(members) < k:
        found = None
        for t in post:
            sub = residue.induced(subtree_vs[t] & residue.vertices)
            w = det.minimal(sub)
            if w is not None:
                found = (t, w)
                break
        if found is None:
            cover = CoverCertificate(Mode.EDGE, frozenset(cut_all))
            report = QualityReport(bound_claimed=k * r * (d * r + 1), hypotheses_held=True)
            return EPOutcome(report, cover=cover)
        t, w = found
        bag = tp.bags[t]
        cut = {
            eid
            for eid, (u, v) in residue.edges.items()
            if u in bag and v in bag
        }
        for c in children[t]:
            if subtree_vs[c] & w.vertices:
                cbag = tp.bags[c]
                for eid, (u, v) in residue.edges.items():
                    if (u in bag and v in cbag) or (v in bag and u in cbag):
                        cut.add(eid)
        members.append(w)
        cut_all |= cut
        residue = residue.delete_edges(cut)
    packing = PackingCertificate(Mode.EDGE, tuple(members))
    return EPOutcome(QualityReport(bound_claimed=k, hypotheses_held=True), packing=packing)


# -- reference separations and disconnected patterns ------------------------------
#
# ``balanced_separation`` as it was: the oracle asked, through a cache keyed
# by vertex set, for every postorder node's set below(t) (its subtree's
# vertices outside its bag) until one packs more than 2k/3.  The package
# reads most of these numbers off the nice form.  ``disconnected_pattern_ep``
# as it was: every witness's trace handed to gallai and rs_selection, one
# copy per witness.  The package must return the same separations and
# outcomes.


def ref_subtree_vertices(ntd):
    """Nice node -> the union of the bags in its subtree."""
    children = {t: node.children for t, node in ntd.nodes.items()}
    bags = {t: node.bag for t, node in ntd.nodes.items()}
    return subtree_unions(children, postorder(children, ntd.root), bags)


def ref_balanced_separation(g, ntd, pack_oracle):
    k = pack_oracle(g)
    if k == 0:
        return Separation(frozenset(g.vertices), frozenset())
    sub_vs = ref_subtree_vertices(ntd)
    cache = {}

    def pack_of(vs):
        if vs not in cache:
            cache[vs] = pack_oracle(g.induced(vs))
        return cache[vs]

    def minus(t):
        return frozenset(sub_vs[t] - ntd.nodes[t].bag)

    node = next(ntd.nodes[t] for t in ntd.postorder() if 3 * pack_of(minus(t)) > 2 * k)
    if node.kind == "forget":
        (u,) = node.children
    else:
        u = max(node.children, key=lambda c: (pack_of(minus(c)), -c))
    return Separation(frozenset(sub_vs[u]), frozenset(g.vertices - minus(u)))


def ref_disconnected_pattern_ep(g, td, component_detectors, k):
    if not validate_td(g, td):
        raise InvalidDecomposition("invalid decomposition")
    q = len(component_detectors)
    need = k * q
    max_bag = max((len(b) for b in td.bags.values()), default=0)
    trace_lists = []
    packs = []
    first = {}
    for i, det in enumerate(component_detectors):
        traces = []
        for w in det.enumerate(g):
            tr = frozenset(t for t, b in td.bags.items() if b & w.vertices)
            if det.connected_patterns and not td.tree.induced(tr).is_connected():
                raise InvariantViolated("trace of a connected witness not connected")
            traces.append(tr)
            first.setdefault((i, tr), w)
        trace_lists.append(traces)
        if traces:
            packing, cover = gallai(SubtreeFamily(td.tree, tuple(traces)))
            packs.append((len(packing), cover))
        else:
            packs.append((0, None))
    deficient = next((i for i, (p, _) in enumerate(packs) if p < need), None)
    if deficient is None:
        selection = rs_selection(td.tree, trace_lists, k)
        members = []
        for j in range(k):
            vs, es = set(), set()
            for i in range(q):
                w = first[i, selection[i][j]]
                vs |= w.vertices
                es |= w.edges
            members.append(PatternWitness(frozenset(vs), frozenset(es)))
        packing = PackingCertificate(Mode.VERTEX, tuple(members))
        return EPOutcome(QualityReport(bound_claimed=k, hypotheses_held=True), packing=packing)
    _, tree_cover = packs[deficient]
    elements = frozenset()
    if tree_cover is not None:
        elements = frozenset().union(*(td.bags[t] for t in tree_cover.elements))
    report = QualityReport(
        bound_claimed=max_bag * (need - 1),
        hypotheses_held=True,
        events=(("deficient-family", deficient),),
    )
    return EPOutcome(report, cover=CoverCertificate(Mode.VERTEX, elements))


# -- reference exact feedback vertex set ---------------------------------------------
#
# The exact_vcover_cycles search as it was before its cycle-rank bound: every
# cover size from 0, the DFS branching on a shortest cycle's vertices.  The
# package's search must return the same value and witness with no more nodes.


def ref_exact_vcover_cycles(g):
    explored = 0

    def attempt(h, size_left, chosen):
        nonlocal explored
        explored += 1
        c = h.shortest_cycle()
        if c is None:
            return chosen
        if size_left == 0:
            return None
        for v in sorted(c.vertex_set):
            got = attempt(h.delete_vertices({v}), size_left - 1, chosen + [v])
            if got is not None:
                return got
        return None

    for size in range(g.n + 1):
        got = attempt(g, size, [])
        if got is not None:
            witness = CoverCertificate(Mode.VERTEX, frozenset(got))
            return ExactResult(len(got), witness, explored)
    raise AssertionError("unreachable: deleting all vertices leaves a forest")


# -- reference subgraph enumerator ---------------------------------------------------
#
# enumerate_copies as it was before symmetry breaking: every vertex map of the
# pattern, one per automorphism of each copy, with the set dropping repeats.
# The package must return the same sorted list, and with first_only the same
# first copy.


def ref_enumerate_copies(host, pattern, first_only=False):
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


# -- reference cycle enumerator ------------------------------------------------
#
# enumerate_cycles as it was before it walked the 2-core: the DFS from each
# root s steps to every vertex >= s, so a long path is walked once per root.
# The package must return the same list.


def ref_enumerate_cycles(g):
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

    def steps(v, s):  # the (neighbour, edge id) pairs from v to vertices >= s
        return ((u, e) for u in g.neighbors(v) if u >= s for e in g.edges_between(v, u))

    for s in verts:
        path = [s]
        on_path = {s}
        path_edges = []
        stack = [steps(s, s)]
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
                if len(path) >= 3 and path[1] < path[-1]:
                    push(Cycle(tuple(path), tuple(path_edges + [eid])))
                continue
            if u in on_path:
                continue
            path.append(u)
            on_path.add(u)
            path_edges.append(eid)
            stack.append(steps(u, s))
    return sorted(out, key=lambda c: (len(c), c.vertices, c.edges))


# -- reference subcubic thickening -----------------------------------------------
#
# thicken_subcubic as it was before the caterpillars were made in the gadget's
# own assembly: it finishes thicken(h, k), then re-derives vertices, edges,
# fresh ids and incidence from the finished graph and replaces every
# vertex of degree >= 4.  The package must build the same gadget, edge order
# included.


def ref_thicken_subcubic(h, k):
    gadget = thicken(h, k)
    g = gadget.graph
    vertices = set(g.vertices)
    edges = dict(g.edges)
    next_v = max(g.vertices, default=-1) + 1
    next_e = g.next_edge_id()
    replaced = {}  # old vertex -> tuple of spine vertices

    incident = {v: [] for v in vertices}
    for eid, (a, b) in edges.items():
        incident[a].append(eid)
        incident[b].append(eid)

    for w in sorted(v for v in g.vertices if g.degree(v) >= 4):
        legs = sorted(
            incident[w],
            key=lambda eid: (
                edges[eid][1] if edges[eid][0] == w else edges[eid][0],
                eid,
            ),
        )
        deg = len(legs)
        spine = []
        for _ in range(deg - 2):
            vid = next_v
            next_v += 1
            vertices.add(vid)
            spine.append(vid)
        for a, b in zip(spine, spine[1:]):
            edges[next_e] = (a, b) if a < b else (b, a)
            next_e += 1
        # legs 0,1 on the first spine vertex, the last two on the final one
        owner = [spine[0], spine[0]]
        owner += [spine[t] for t in range(1, deg - 3)]
        owner += [spine[-1], spine[-1]]
        for eid, s in zip(legs, owner):
            a, b = edges[eid]
            other = b if a == w else a
            edges[eid] = (s, other) if s < other else (other, s)
        vertices.discard(w)
        replaced[w] = tuple(spine)

    def remap(vs):
        out = set()
        for v in vs:
            out.update(replaced.get(v, (v,)))
        return frozenset(out)

    return Gadget(
        graph=MultiGraph(vertices, edges),
        k=gadget.k,
        variant="subdivision-subcubic",
        pattern=gadget.pattern,
        copies={v: remap(vs) for v, vs in gadget.copies.items()},
        columns={key: remap(vs) for key, vs in gadget.columns.items()},
        apex_groups={key: remap(vs) for key, vs in gadget.apex_groups.items()},
        ports={key: remap(vs) for key, vs in gadget.ports.items()},
        bundles=dict(gadget.bundles),
    )
