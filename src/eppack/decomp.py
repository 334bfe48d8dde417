"""Tree decompositions, their nice form, balanced separations, and the
recursive cover constructions built on them."""

import heapq
from dataclasses import dataclass

from .certificates import (
    CoverCertificate,
    Diagnostics,
    EPOutcome,
    PackingCertificate,
    PatternWitness,
    QualityReport,
)
from .errors import (
    CeilingViolated,
    EPError,
    InvalidDecomposition,
    InvariantViolated,
    OracleFailure,
)
from .graph import Mode, MultiGraph, postorder
from .trees import SubtreeFamily, gallai, rs_selection

EXACT_TD_MAX_N = 15  # the subset DP takes 2^n memory and time


@dataclass(frozen=True)
class TreeDecomposition:
    tree: MultiGraph
    bags: dict  # tree vertex -> frozenset of host vertices

    def width(self):
        return max((len(b) for b in self.bags.values()), default=0) - 1


def validate_td(g, td):
    """Check the three decomposition conditions, naming the first failure."""
    if set(td.bags) != set(td.tree.vertices):
        return Diagnostics([("bags-vs-tree-mismatch",)])
    if td.tree.vertices and (not td.tree.is_forest() or not td.tree.is_connected()):
        return Diagnostics([("decomposition-tree-not-a-tree",)])
    holders = {}  # host vertex -> the tree nodes whose bags hold it
    for t, b in td.bags.items():
        for v in b:
            holders.setdefault(v, set()).add(t)
    missing = g.vertices - holders.keys()
    if missing:
        return Diagnostics([("vertex-in-no-bag", sorted(missing))])
    for eid in sorted(g.edges):
        u, v = g.endpoints(eid)
        if not holders[u] & holders[v]:
            return Diagnostics([("edge-in-no-bag", eid, (u, v))])
    # the nodes holding v induce a forest, connected iff it has one edge
    # fewer than it has nodes
    spanned = dict.fromkeys(holders, 0)
    for s, t in td.tree.edges.values():
        for v in td.bags[s] & td.bags[t]:
            spanned[v] += 1
    for v in sorted(g.vertices):
        if spanned[v] != len(holders[v]) - 1:
            return Diagnostics([("bags-of-vertex-disconnected", v)])
    return Diagnostics()


# -- construction from elimination orders --------------------------------------


def _td_from_elimination(g, order):
    """Standard clique-at-elimination construction; width follows the order."""
    if not order:
        tree = MultiGraph(range(1), {})
        return TreeDecomposition(tree, {0: frozenset()})
    pos = {v: i for i, v in enumerate(order)}
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    bags = {}
    for v in order:
        later = {u for u in adj[v] if pos[u] > pos[v]}
        bags[pos[v]] = frozenset({v} | later)
        for a in later:
            adj[a].discard(v)
            adj[a].update(later - {a})
    edges = []
    for v in order:
        later = sorted(bags[pos[v]] - {v}, key=lambda u: pos[u])
        if later:
            edges.append((pos[v], pos[later[0]]))
        elif pos[v] + 1 < len(order):
            # end of a component: its bag is a singleton, so chaining it to
            # the next node cannot break the connectivity condition
            edges.append((pos[v], pos[v] + 1))
    tree = MultiGraph.from_edges(range(len(order)), edges)
    return TreeDecomposition(tree, bags)


def min_fill_order(g):
    """Greedy elimination order minimizing fill-in at each step.

    Ties go to the smaller degree, then the smaller vertex.  A heap holds
    each remaining vertex's (fill, degree, vertex) key.  Eliminating v
    changes only the keys of N(v) and N(N(v)), so only those are recomputed;
    a popped entry that is no longer its vertex's key is skipped.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices}

    def key(v):
        nbrs = adj[v]
        fill = sum(1 for a in nbrs for b in nbrs if a < b and b not in adj[a])
        return (fill, len(nbrs), v)

    keys = {v: key(v) for v in g.vertices}
    heap = list(keys.values())
    heapq.heapify(heap)
    order = []
    while heap:
        top = heapq.heappop(heap)
        v = top[2]
        if keys.get(v) != top:
            continue
        del keys[v]
        order.append(v)
        nbrs = adj.pop(v)
        for a in nbrs:
            adj[a].discard(v)
            adj[a].update(nbrs - {a})
        for u in nbrs.union(*(adj[a] for a in nbrs)):
            k = key(u)
            if k != keys[u]:
                keys[u] = k
                heapq.heappush(heap, k)
    return order


def min_fill_td(g):
    return _td_from_elimination(g, min_fill_order(g))


def exact_elimination_td(g):
    """Optimal-width decomposition by subset dynamic programming.

    cost[S] = min over i in S of max(cost[S - i], |Q(S - i, i)|), where
    Q(S - i, i) is the set of vertices outside S next to the component of i
    in G[S] (Bodlaender, Fomin, Koster, Kratsch & Thilikos, "On exact
    algorithms for treewidth", ESA 2006).  Every vertex of one component
    shares that set, so each component of G[S] is grown once, bit-parallel.
    Ties go to the smallest i.

    The masks are settled top-down, from the full set, and each only as far
    as its caller needs: solve(s, limit) returns cost[s] when that is below
    limit, and otherwise a lower bound of at least limit.  low, the least
    |Q| over the components of G[s], bounds cost[s] from below, since each
    term max(cost[S - i], |Q(S - i, i)|) is at least its |Q|.  The bits of
    s are walked in ascending order with the best term so far as the
    limit: a term whose |Q| or whose bound reaches that limit cannot beat
    it and is skipped, every other term is exact, and a term replaces the
    best only when strictly smaller.  So the first i to reach the minimum
    is kept, the least (cost, i) that a full bottom-up pass picks, and the
    walk stops once the best is down to low, where a later i can only tie.
    Each mask keeps its exact cost and chosen bit, or the best lower bound
    found: memory is still 2^n.

    Only intended for hosts of at most EXACT_TD_MAX_N vertices; the
    heuristics cover the rest.
    """
    n = g.n
    if n > EXACT_TD_MAX_N:
        raise InvalidDecomposition(f"exact search limited to {EXACT_TD_MAX_N} vertices")
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [0] * (1 << n)  # nbrs[s]: the neighbours of the vertices in s
    for v in verts:
        for u in g.neighbors(v):
            nbrs[1 << index[v]] |= 1 << index[u]
    for s in range(1, 1 << n):
        low = s & -s
        nbrs[s] = nbrs[low] | nbrs[s ^ low]
    exact = [None] * (1 << n)  # cost[s], once known
    exact[0] = -1
    lower = [0] * (1 << n)  # a lower bound on cost[s] otherwise
    choice = [0] * (1 << n)  # the bit of the chosen i

    # recursive: each call drops one bit of s, so the depth is at most n <= 15
    def solve(s, limit):  # the caller has looked up exact[s] and lower[s]
        comps = []
        low = n
        rest = s
        while rest:
            comp = rest & -rest
            grown = comp | nbrs[comp] & s
            while grown != comp:
                comp = grown
                grown = comp | nbrs[comp] & s
            rest ^= comp
            q = (nbrs[comp] & ~s).bit_count()
            if q < low:
                low = q
            comps.append((comp, q))
        best, pick = limit, 0
        if low < limit:
            rest = s
            while rest:
                bit = rest & -rest
                rest ^= bit
                for comp, q in comps:
                    if comp & bit:
                        break
                if q < best:
                    t = s ^ bit
                    w = exact[t]
                    if w is None:
                        w = lower[t]
                        if w < best:
                            w = solve(t, best)
                    if w < best:
                        best, pick = (w if w > q else q), bit
                        if best <= low:
                            break
        if pick:
            exact[s] = best
            choice[s] = pick
            return best
        lower[s] = low = limit if limit > low else low
        return low

    solve((1 << n) - 1, n + 1)
    solve = None  # solve's cell refers to it: free the 2^n lists without the cyclic GC
    order = []
    mask = (1 << n) - 1
    while mask:
        bit = choice[mask]
        order.append(verts[bit.bit_length() - 1])
        mask ^= bit
    order.reverse()
    return _td_from_elimination(g, order)


# -- nice form -------------------------------------------------------------------


@dataclass(frozen=True)
class NiceNode:
    kind: str  # base | introduce | forget | join
    bag: frozenset
    children: tuple
    vertex: int = None  # the introduced/forgotten vertex


@dataclass
class NiceTreeDecomposition:
    nodes: dict  # id -> NiceNode
    root: int

    def _children(self):
        return {t: node.children for t, node in self.nodes.items()}

    def postorder(self):
        return postorder(self._children(), self.root)

    def audit(self):
        """Hard checks of the nice-form invariants; they run under -O too."""

        def check(ok, t, why):
            if not ok:
                raise InvalidDecomposition(f"nice node {t}: {why}")

        check(self.nodes[self.root].bag == frozenset(), self.root, "root bag not empty")
        for t, node in self.nodes.items():
            deg = len(node.children) + (0 if t == self.root else 1)
            check(deg <= 3, t, "degree exceeds 3")
            if node.kind == "base":
                check(node.bag == frozenset() and not node.children, t, "base not empty")
            elif node.kind == "introduce":
                (c,) = node.children
                below = self.nodes[c].bag
                check(node.bag == below | {node.vertex}, t, "bag is not child's plus vertex")
                check(node.vertex not in below, t, "vertex already in child's bag")
            elif node.kind == "forget":
                (c,) = node.children
                below = self.nodes[c].bag
                check(node.bag == below - {node.vertex}, t, "bag is not child's minus vertex")
                check(node.vertex in below, t, "vertex not in child's bag")
            elif node.kind == "join":
                a, b = node.children
                check(self.nodes[a].bag == node.bag == self.nodes[b].bag, t, "bags differ")
            else:
                check(False, t, f"unknown kind {node.kind}")

    def to_td(self):
        edges = []
        for t, node in self.nodes.items():
            for c in node.children:
                edges.append((t, c))
        tree = MultiGraph.from_edges(self.nodes.keys(), edges)
        return TreeDecomposition(tree, {t: n.bag for t, n in self.nodes.items()})


def to_nice(g, td):
    """Rooted nice form with the same width."""
    check = validate_td(g, td)
    if not check:
        raise InvalidDecomposition(f"invalid decomposition: {check.violations}")
    nodes = {}

    def new(kind, bag, children, vertex=None):
        nid = len(nodes)
        nodes[nid] = NiceNode(kind, frozenset(bag), tuple(children), vertex)
        return nid

    def adapt(nid, bag_from, bag_to):
        cur = set(bag_from)
        for v in sorted(bag_from - bag_to):
            cur.discard(v)
            nid = new("forget", set(cur), (nid,), v)
        for v in sorted(bag_to - bag_from):
            cur.add(v)
            nid = new("introduce", set(cur), (nid,), v)
        return nid

    if not td.tree.vertices:
        root = new("base", frozenset(), ())
        return NiceTreeDecomposition(nodes, root)

    troot = min(td.tree.vertices)
    children = td.tree.rooted(troot)
    parent_bag = {c: td.bags[t] for t, kids in children.items() for c in kids}
    parent_bag[troot] = frozenset()
    # a node's chain, topped by its adaptation to its parent's bag, is made
    # right after its children's: the ids a depth-first build would give
    top = {}
    for t in postorder(children, troot):
        bag = td.bags[t]
        tops = [top.pop(c) for c in children[t]]
        if not tops:
            tops = [adapt(new("base", frozenset(), ()), frozenset(), bag)]
        while len(tops) > 1:
            tops = [new("join", bag, (tops[0], tops[1]))] + tops[2:]
        top[t] = adapt(tops[0], bag, parent_bag[t])
    root = top[troot]
    if nodes[root].bag != frozenset():
        raise InvariantViolated("root bag not empty")
    ntd = NiceTreeDecomposition(nodes, root)
    ntd.audit()
    return ntd


# -- balanced separations ---------------------------------------------------------


@dataclass(frozen=True)
class Separation:
    a: frozenset
    b: frozenset

    @property
    def order(self):
        return len(self.a & self.b)

    def validate(self, g):
        if self.a | self.b != g.vertices:
            return False
        left = self.a - self.b
        right = self.b - self.a
        for u, v in g.edges.values():
            if (u in left and v in right) or (v in left and u in right):
                return False
        return True


def balanced_separation(g, ntd, pack_oracle):
    """Separation of order <= width+1 with both strict sides' packing <= 2k/3.

    k = pack_oracle(g).  Split at the first postorder node t whose below(t),
    its subtree's vertices outside its bag, packs more than 2k/3 (Robertson
    & Seymour, Graph Minors V): at a forget node take its child, at a join
    node the child that packs more, the smaller id on a tie.  The numbers
    are read off the nice form: a base node's set is empty, an introduce
    node's is its child's, and a join node's children's sets are disjoint
    and separated by the shared bag, so their numbers add.  A forget node
    adds v; with fewer than two edges into the set v lies on no witness,
    and otherwise the oracle is asked.  So pack_oracle must count disjoint
    connected witnesses with every witness vertex on two witness edges:
    cycles are such, and the cycle rank adds up the same way.
    """
    try:
        k = pack_oracle(g)
    except EPError as exc:  # e.g. a budget ran out; a bug in the oracle propagates
        raise OracleFailure(str(exc)) from exc
    if k == 0:
        return Separation(frozenset(g.vertices), frozenset())
    below, pack = {}, {}  # node -> below(t), and its packing number
    for t in ntd.postorder():
        node = ntd.nodes[t]
        kids = node.children
        if node.kind == "base":
            below[t], pack[t] = frozenset(), 0
        elif node.kind == "introduce":
            below[t], pack[t] = below[kids[0]], pack[kids[0]]
        elif node.kind == "join":
            below[t] = below[kids[0]] | below[kids[1]]
            pack[t] = pack[kids[0]] + pack[kids[1]]
        else:  # forget
            v = node.vertex
            below[t] = vs = below[kids[0]] | {v}
            into = sum(len(g.edges_between(v, u)) for u in g.neighbors(v) if u in vs)
            pack[t] = pack[kids[0]] if into < 2 else pack_oracle(g.induced(vs))
        if 3 * pack[t] > 2 * k:
            break
    else:
        raise InvariantViolated("root must satisfy the packing threshold")
    if node.kind == "forget":
        (u,) = node.children
    elif node.kind == "join":
        u = max(node.children, key=lambda c: (pack[c], -c))
    else:
        raise InvariantViolated(f"threshold node of kind {node.kind}")
    sep = Separation(below[u] | ntd.nodes[u].bag, frozenset(g.vertices - below[u]))
    if not sep.validate(g):
        raise InvariantViolated("separation invariant violated")
    return sep


# -- ceilings and the recursive cover ---------------------------------------------


@dataclass(frozen=True)
class Ceiling:
    """Caller-supplied monotone superadditive bound on the parameter."""

    f: object  # callable int -> int


def _restrict_td(td, keep):
    return TreeDecomposition(
        td.tree, {t: b & keep for t, b in td.bags.items()}
    )


def cover_connected_bounded_tw(g, det, ceiling, td):
    """Recursive cover for connected patterns via balanced separations.

    The detector's exact vertex-packing oracle gives the packing numbers.
    """
    # every graph solved below is an induced subgraph of g, so its vertex
    # set names it; balanced_separation asks again for h, and a side of its
    # separation may be a set it asked for at a forget node
    packs = {}

    def vpack(h):
        if h.vertices not in packs:
            packs[h.vertices] = det.exact_vpack(h)
        return packs[h.vertices]

    # recursive: each side of a separation keeps at most 2/3 of h's packing
    # number, so the depth is logarithmic in it
    def rec(h, td_h):
        if det.find(h) is None:
            return set()
        k = vpack(h)
        w = td_h.width()
        if w > ceiling.f(k):
            raise CeilingViolated(
                f"observed width {w} exceeds ceiling f({k})={ceiling.f(k)}"
            )
        ntd = to_nice(h, td_h)
        sep = balanced_separation(h, ntd, vpack)
        cov = set(sep.a & sep.b)
        for side in (sep.a - sep.b, sep.b - sep.a):
            cov |= rec(h.induced(side), _restrict_td(td_h, side))
        return cov

    return CoverCertificate(Mode.VERTEX, frozenset(rec(g, td)))


# -- disconnected patterns ----------------------------------------------------------


def disconnected_pattern_ep(g, td, component_detectors, k):
    """Pack k disjoint unions (one witness per component family) or cover.

    Covers come from the deficient family: a tree cover of its decomposition
    traces, expanded to the union of the corresponding bags.
    """
    check = validate_td(g, td)
    if not check:
        raise InvalidDecomposition(f"invalid decomposition: {check.violations}")
    q = len(component_detectors)
    need = k * q
    max_bag = max((len(b) for b in td.bags.values()), default=0)

    firsts = []  # per family: distinct trace -> first witness, in first-seen order
    packs = []  # per family: its traces' packing number and tree cover
    for det in component_detectors:
        first = {}
        for w in det.enumerate(g):
            first.setdefault(frozenset(t for t, b in td.bags.items() if b & w.vertices), w)
        if det.connected_patterns and any(
            not td.tree.induced(tr).is_connected() for tr in first
        ):
            raise InvariantViolated("trace of a connected witness not connected")
        firsts.append(first)
        if first:
            packing, cover = gallai(SubtreeFamily(td.tree, tuple(first)))
            packs.append((len(packing), cover))
        else:
            packs.append((0, None))

    deficient = next((i for i, (p, _) in enumerate(packs) if p < need), None)
    if deficient is None:
        selection = rs_selection(td.tree, firsts, k)
        if selection is None:
            raise InvariantViolated("selection must exist when every family is rich")
        members = []
        for j in range(k):
            vs, es = set(), set()
            for i in range(q):
                w = firsts[i][selection[i][j]]
                vs |= w.vertices
                es |= w.edges
            members.append(PatternWitness(frozenset(vs), frozenset(es)))
        packing = PackingCertificate(Mode.VERTEX, tuple(members))
        report = QualityReport(bound_claimed=k, hypotheses_held=True)
        return EPOutcome(report, packing=packing)

    _, tree_cover = packs[deficient]
    if tree_cover is None:
        elements = frozenset()
    else:
        elements = frozenset().union(*(td.bags[t] for t in tree_cover.elements))
    cover = CoverCertificate(Mode.VERTEX, elements)
    report = QualityReport(
        bound_claimed=max_bag * (need - 1),
        hypotheses_held=True,
        events=(("deficient-family", deficient),),
    )
    if component_detectors[deficient].find(g.delete_vertices(cover.elements)) is not None:
        raise InvariantViolated("a witness survives the cover")
    return EPOutcome(report, cover=cover)

