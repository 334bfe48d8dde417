"""Loopless undirected multigraphs and their local operations.

Vertices and edges carry dense integer identifiers that stay stable across
operations: derived graphs keep the surviving identifiers and allocate
fresh ones (max + 1 onward) for anything they create, so certificates
written against one graph remain meaningful after further surgery.
"""

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParameter, UnknownIdentifier, WouldCreateLoop


class Mode(Enum):
    """Selects the vertex or edge variant of packings and covers."""

    VERTEX = "v"
    EDGE = "e"

    @classmethod
    def parse(cls, text):
        for m in cls:
            if text in (m.value, m.name.lower()):
                return m
        raise InvalidParameter(f"unknown mode {text!r}")


@dataclass(frozen=True)
class Cycle:
    """A cycle as an alternating vertex/edge sequence.

    vertices[i] and vertices[(i+1) % L] are joined by edges[i]; parallel
    edges are therefore distinguishable.  Length is the edge count.
    """

    vertices: tuple
    edges: tuple

    def __len__(self):
        return len(self.edges)

    @property
    def vertex_set(self):
        return frozenset(self.vertices)

    @property
    def edge_set(self):
        return frozenset(self.edges)


def _cycle_along(adj, path):
    """The cycle along ``path`` back to its start, on each step's smallest edge id."""
    steps = zip(path, path[1:] + path[:1])
    return Cycle(tuple(path), tuple(adj[a][b][0] for a, b in steps))


def _peel(adj, deg, low):
    """Delete the vertices ``low`` from the degree table ``deg``, in place,
    and then every vertex that falls below degree 2."""
    while low:
        v = low.pop()
        del deg[v]
        for u, ids in adj[v].items():
            if u in deg:
                d = deg[u]
                deg[u] = d - len(ids)
                if d >= 2 > deg[u]:  # not yet queued
                    low.append(u)


class MultiGraph:
    """Immutable loopless multigraph; operations return new graphs.

    Only ``__init__`` validates, for new or outside data; derived graphs
    (deletions, ``induced``, the low-degree reduction) come from ``_derive``
    with ascending id lists and ``u < v`` endpoints.  No adjacency row (a
    vertex's neighbour -> edge-id-list dict) nor id list is mutated after
    construction, so a derived graph copies only the rows and lists it
    touches and shares all others with its parent.
    """

    __slots__ = ("_vertices", "_edges", "_adj")

    def __init__(self, vertices, edges):
        vs = frozenset(vertices)
        es = dict(edges)
        for eid, (u, v) in es.items():
            if u == v:
                raise WouldCreateLoop(f"edge {eid} joins {u} to itself")
            if u not in vs or v not in vs:
                raise UnknownIdentifier(f"edge {eid}={{{u},{v}}} has missing endpoint")
            if u > v:
                es[eid] = (v, u)
        self._vertices = vs
        self._edges = es
        adj = {v: {} for v in vs}
        for eid in sorted(es):
            u, v = es[eid]
            adj[u].setdefault(v, []).append(eid)
            adj[v].setdefault(u, []).append(eid)
        self._adj = adj

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_edges(cls, vertices, pairs):
        """Vertices plus (u, v) pairs; edge ids are 0..m-1 in input order."""
        return cls(vertices, {i: (u, v) for i, (u, v) in enumerate(pairs)})

    @classmethod
    def complete(cls, n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return cls.from_edges(range(n), pairs)

    @classmethod
    def cycle_graph(cls, n):
        return cls.from_edges(range(n), [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path_graph(cls, n):
        return cls.from_edges(range(n), [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def theta(cls, t):
        """Two vertices joined by t parallel edges."""
        return cls.from_edges(range(2), [(0, 1)] * t)

    @classmethod
    def complete_bipartite(cls, a, b):
        pairs = [(i, a + j) for i in range(a) for j in range(b)]
        return cls.from_edges(range(a + b), pairs)

    @classmethod
    def petersen(cls):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return cls.from_edges(range(10), outer + spokes + inner)

    # -- basic accessors ------------------------------------------------------

    @property
    def vertices(self):
        return self._vertices

    @property
    def edges(self):
        return self._edges

    @property
    def n(self):
        return len(self._vertices)

    @property
    def m(self):
        return len(self._edges)

    def endpoints(self, eid):
        try:
            return self._edges[eid]
        except KeyError:
            raise UnknownIdentifier(f"unknown edge {eid}") from None

    def neighbors(self, v):
        try:
            return sorted(self._adj[v])
        except KeyError:
            raise UnknownIdentifier(f"unknown vertex {v}") from None

    def edges_between(self, u, v):
        return sorted(self._adj.get(u, {}).get(v, ()))

    def degree(self, v):
        return sum(map(len, self._adj[v].values()))

    def degrees(self):
        return {v: sum(map(len, row.values())) for v, row in self._adj.items()}

    def next_edge_id(self):
        return max(self._edges, default=-1) + 1

    def elements(self, mode):
        return self._vertices if mode is Mode.VERTEX else frozenset(self._edges)

    # -- local operations -----------------------------------------------------

    @staticmethod
    def _derive(vertices, edges, adj):
        """A graph from finished parts, without the checks of ``__init__``."""
        g = MultiGraph.__new__(MultiGraph)
        g._vertices, g._edges, g._adj = vertices, edges, adj
        return g

    def delete_vertices(self, xs):
        xs = set(xs)
        unknown = xs - self._vertices
        if unknown:
            raise UnknownIdentifier(f"unknown vertices {sorted(unknown)}")
        parent = self._adj
        adj, es = dict(parent), dict(self._edges)
        for x in xs:
            for u, ids in adj.pop(x).items():
                if u in xs:
                    for eid in ids:
                        es.pop(eid, None)  # the other end pops it too
                    continue
                for eid in ids:
                    del es[eid]
                row = adj[u]
                if row is parent[u]:
                    row = adj[u] = dict(row)
                del row[x]
        return self._derive(self._vertices - xs, es, adj)

    def delete_edges(self, xs):
        xs = set(xs)
        unknown = xs.difference(self._edges)
        if unknown:
            raise UnknownIdentifier(f"unknown edges {sorted(unknown)}")
        parent = self._adj
        adj, es = dict(parent), dict(self._edges)
        for eid in xs:
            u, v = es.pop(eid)
            for a, b in ((u, v), (v, u)):
                row = adj[a]
                if row is parent[a]:
                    row = adj[a] = dict(row)
                ids = [i for i in row[b] if i != eid]
                if ids:
                    row[b] = ids
                else:
                    del row[b]
        return self._derive(self._vertices, es, adj)

    def delete(self, xs, mode):
        """Delete a set of vertices or a set of edges, as mode says."""
        if mode is Mode.VERTEX:
            return self.delete_vertices(xs)
        return self.delete_edges(xs)

    def induced(self, xs):
        xs = set(xs)
        unknown = xs - self._vertices
        if unknown:
            raise UnknownIdentifier(f"unknown vertices {sorted(unknown)}")
        return self.delete_vertices(self._vertices - xs)

    # -- traversal ------------------------------------------------------------

    def components(self):
        """Vertex sets of connected components, sorted by smallest member."""
        seen = set()
        out = []
        for s in sorted(self._vertices):
            if s in seen:
                continue
            comp = {s}
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for u in self._adj[v]:
                    if u not in comp:
                        comp.add(u)
                        queue.append(u)
            seen |= comp
            out.append(frozenset(comp))
        return out

    def is_connected(self):
        return len(self.components()) <= 1

    def is_forest(self):
        return not self.core_degrees()

    def core_degrees(self):
        """Vertex -> degree in the 2-core, which holds every cycle.

        Peeling a vertex of degree at most 1 deletes no cycle and keeps the
        cycle rank m - n + components (a leaf takes a vertex and an edge, an
        isolated vertex a vertex and a component): only forests peel away.
        """
        deg = self.degrees()
        _peel(self._adj, deg, [v for v, d in deg.items() if d < 2])
        return deg

    def rooted(self, root):
        """Children of each vertex reachable from ``root``, in a DFS tree.

        Keys come in discovery order, so a parent precedes its children;
        each children list is ascending.  On a tree every vertex appears.
        """
        children = {root: []}
        stack = [root]
        while stack:
            t = stack.pop()
            for u in self.neighbors(t):
                if u not in children:
                    children[t].append(u)
                    children[u] = []
                    stack.append(u)
        return children

    def spanning_forest_edges(self):
        """Edge ids of a spanning forest (smallest ids first)."""
        parent = {v: v for v in self._vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        chosen = []
        for eid in sorted(self._edges):
            u, v = self._edges[eid]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                chosen.append(eid)
        return chosen

    def shortest_cycle(self):
        """A shortest cycle, or None on forests.

        A parallel pair counts as a cycle of length 2: the pair with the
        smallest endpoints, with its two smallest edge ids.  Otherwise the
        graph is simple, and the result is C, the shortest cycle whose
        canonical vertex sequence (its lexicographically smallest rotation
        or reflection) is smallest.  C's first vertex, the root, is the
        smallest vertex on any shortest cycle.  Two passes find C, neither
        recursive:

        - Girth (Itai & Rodeh 1978).  For each r in ascending order, a BFS
          in G[>= r] labels each vertex with the neighbour of r it descends
          from.  The shortest cycle through r has length min d(x) + d(y) + 1
          over the edges xy whose ends have different labels: going round
          that cycle the label changes at some edge, and both its ends are
          no farther from r than along the cycle.  At depth D every edge not
          yet seen closes a cycle of at least 2D + 1, so the BFS stops once
          that reaches the best length; the first r to reach the girth is
          the root, and a girth of 3 ends the scan.
        - Cycle.  From the root, a DFS over ascending neighbours in
          G[>= root], pruned by BFS distance back to the root, takes the
          smallest path that closes at the root with girth length.  Its
          reverse closes too and comes later, so the path already runs in
          canonical direction.

        C is also the minimum, by length and then canonical vertex/edge
        sequence, over one candidate per edge: the edge plus the BFS path
        between its endpoints that avoids it.  Every candidate is a cycle,
        so none beats C; and a BFS over ascending neighbours gives each
        vertex its lexicographically smallest shortest path from the
        source, so the candidate of C's edge {v0, v_last} is C itself.

        Both passes search only the 2-core, which holds every cycle and every
        shortest path between its vertices (a pendant tree hangs by one
        vertex), and a root with under two core neighbours above it is no
        cycle's smallest vertex; so pendant trees cost only the peel.
        """
        return self._shortest_cycle(self.core_degrees())

    def _shortest_cycle(self, core):
        """``shortest_cycle`` given ``core``, this graph's ``core_degrees()``."""
        if not core:
            return None
        adj = self._adj
        if len(self.underlying_pairs()) < self.m:
            u, v = min(
                (u, v) for u in adj for v, ids in adj[u].items()
                if u < v and len(ids) > 1
            )
            return Cycle((u, v), tuple(adj[u][v][:2]))  # unbeatable when loopless
        rows = adj if len(core) == self.n else {v: [u for u in adj[v] if u in core] for v in core}
        nbrs = {v: sorted(a) for v, a in rows.items()}
        best, root, root_dist = self.n + 1, None, None
        for r in sorted(nbrs):
            if best == 3:
                break
            if len(nbrs[r]) < 2 or nbrs[r][-2] < r:
                continue  # under two neighbours above r: r is no cycle's smallest vertex
            dist, label = {r: 0}, {r: r}
            frontier, depth = [r], 0
            while frontier and 2 * depth + 1 < best:
                grown = []
                for x in frontier:
                    lx = label[x]
                    for y in nbrs[x]:
                        if y <= r:
                            continue  # outside G[>= r], or r as the parent of x
                        if y not in dist:
                            dist[y] = depth + 1
                            label[y] = lx if depth else y
                            grown.append(y)
                        elif label[y] != lx and depth + dist[y] + 1 < best:
                            best, root, root_dist = depth + dist[y] + 1, r, dist
                frontier, depth = grown, depth + 1
        # root_dist holds every distance up to best // 2, which is all the
        # prune reads.  Below the girth a step can revisit no vertex of the
        # path but the one it came from.
        path, todo = [root], [iter(nbrs[root])]
        while True:
            back = path[-2] if len(path) > 1 else root
            for y in todo[-1]:
                if y == root and len(path) == best:
                    return _cycle_along(adj, path)
                if y > root and y != back and root_dist.get(y, best) + len(path) <= best:
                    path.append(y)
                    todo.append(iter(nbrs[y]))
                    break
            else:
                path.pop()
                todo.pop()

    # -- misc -----------------------------------------------------------------

    def underlying_pairs(self):
        """Set of unordered endpoint pairs (multiplicities collapsed)."""
        return {uv for uv in self._edges.values()}

    def __repr__(self):
        return f"MultiGraph(n={self.n}, m={self.m})"

    def __eq__(self, other):
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self):
        return hash((self._vertices, tuple(sorted(self._edges.items()))))


def postorder(children, root):
    """Nodes of a rooted tree, each after its children, children in list order.

    ``children`` maps every node to its list of children, as
    ``MultiGraph.rooted`` returns it.  No recursion, so any depth is fine:
    the result is the reverse of a preorder that visits children last first.
    """
    post = []
    stack = [root]
    while stack:
        t = stack.pop()
        post.append(t)
        stack.extend(children[t])
    post.reverse()
    return post


def subtree_unions(children, post, bags):
    """Node -> union of the bags in its subtree; ``post`` is a postorder."""
    out = {}
    for t in post:
        acc = set(bags[t])
        for c in children[t]:
            acc |= out[c]
        out[t] = frozenset(acc)
    return out
