"""Lower-bound gadget generators and their routing arguments.

gamma builds the apexed grid; the thicken family glues one copy per pattern
vertex with parallel port bundles.  route_avoiding turns the existence
argument (any small deleted set leaves a model intact) into an algorithm
that outputs an explicit, verifiable subdivision or minor model.
"""

from dataclasses import dataclass, field, replace

from .errors import (
    InvalidParameter,
    InvariantViolated,
    PreconditionViolated,
    RoutingFailed,
    UnknownIdentifier,
)
from .graph import MultiGraph


@dataclass
class Gadget:
    graph: MultiGraph
    k: int
    variant: str  # gamma | subdivision | subdivision-subcubic | minor
    pattern: MultiGraph = None
    copies: dict = field(default_factory=dict)  # pattern vertex -> frozenset
    columns: dict = field(default_factory=dict)  # (copy, col) -> frozenset
    apex_groups: dict = field(default_factory=dict)  # (copy, j) -> frozenset
    ports: dict = field(default_factory=dict)  # (copy, i, j) -> frozenset
    bundles: dict = field(default_factory=dict)  # (u, v) -> tuple of edge ids


@dataclass(frozen=True)
class SubdivisionModel:
    branch: dict  # pattern vertex -> host vertex
    paths: dict  # (u, v) with u < v -> tuple of host vertices, ends included


@dataclass(frozen=True)
class MinorModel:
    branch_sets: dict  # pattern vertex -> frozenset of host vertices
    edge_map: dict  # (u, v) with u < v -> host edge id


# -- construction ---------------------------------------------------------------


class _Assembly:
    """Mutable vertex/edge store with incidence and the class maps."""

    def __init__(self):
        self.vertices = set()
        self.edges = {}
        self.incident = {}  # vertex -> list of edge ids
        self.next_v = 0
        self.next_e = 0
        self.copies, self.columns, self.apex_groups = {}, {}, {}
        self.ports, self.bundles = {}, {}

    def add_vertex(self):
        vid = self.next_v
        self.next_v += 1
        self.vertices.add(vid)
        self.incident[vid] = []
        return vid

    def add_edge(self, u, v):
        eid = self.next_e
        self.next_e += 1
        self.edges[eid] = (u, v) if u < v else (v, u)
        self.incident[u].append(eid)
        self.incident[v].append(eid)
        return eid

    def caterpillar(self, w):
        """Replace w, of degree >= 4, by a left-leaning caterpillar.

        The spine has degree - 2 vertices; the legs, in (far end, id)
        order, hang two on the first spine vertex, one on each inner one and
        two on the last.  Edge ids survive the rewiring.  Returns the spine;
        the class maps are the caller's to update.
        """
        # a leg's far end is its endpoint other than w
        far = {eid: sum(self.edges[eid]) - w for eid in self.incident.pop(w)}
        legs = sorted(far, key=lambda eid: (far[eid], eid))
        self.vertices.discard(w)
        spine = [self.add_vertex() for _ in range(len(legs) - 2)]
        for a, b in zip(spine, spine[1:]):
            self.add_edge(a, b)
        for eid, s in zip(legs, [spine[0], *spine, spine[-1]]):
            self.edges[eid] = (s, far[eid]) if s < far[eid] else (far[eid], s)
            self.incident[s].append(eid)
        return tuple(spine)

    def gadget(self, k, variant, pattern=None):
        graph = MultiGraph(self.vertices, self.edges)
        return Gadget(
            graph, k, variant, pattern, self.copies,
            self.columns, self.apex_groups, self.ports, self.bundles,
        )


def _add_gamma_copy(asm, d, k, copy):
    """One apexed d*k x (d+k-1) grid, entered in the assembly's class maps."""
    width = d * k
    height = d + k - 1
    grid = {}
    for row in range(height):
        for col in range(width):
            grid[(row, col)] = asm.add_vertex()
    for row in range(height):
        for col in range(width):
            if col + 1 < width:
                asm.add_edge(grid[(row, col)], grid[(row, col + 1)])
            if row + 1 < height:
                asm.add_edge(grid[(row, col)], grid[(row + 1, col)])
    for j in range(k):
        a = asm.add_vertex()
        for t in range(d):
            asm.add_edge(a, grid[(0, j * d + t)])
        asm.apex_groups[(copy, j)] = frozenset({a})
    for col in range(width):
        asm.columns[(copy, col)] = frozenset(
            grid[(row, col)] for row in range(height)
        )
    for i in range(d):
        for j in range(k):
            asm.ports[(copy, i, j)] = frozenset({grid[(height - 1, i * k + j)]})


def gamma(d, k):
    """The apexed grid gadget on d*k*(d+k-1) + k vertices."""
    if d < 1 or k < 1:
        raise InvalidParameter("gamma needs d >= 1 and k >= 1")
    asm = _Assembly()
    _add_gamma_copy(asm, d, k, None)
    return asm.gadget(k, "gamma")


def _check_pattern(h):
    if any(len(h.edges_between(u, v)) > 1 for u, v in h.underlying_pairs()):
        raise InvalidParameter("pattern must be simple")
    if not h.vertices or h.m == 0:
        raise InvalidParameter("pattern needs at least one edge")
    if any(h.degree(v) == 0 for v in h.vertices):
        raise InvalidParameter("pattern must have minimum degree 1")


def _rank(h, v, u):
    """Rank of u among v's neighbors, in ascending identifier order."""
    return h.neighbors(v).index(u)


def _thicken(h, k):
    """The assembly of the thickening, class maps included."""
    if k < 1:
        raise InvalidParameter("k must be at least 1")
    _check_pattern(h)
    asm = _Assembly()
    for v in sorted(h.vertices):
        first = asm.next_v
        _add_gamma_copy(asm, h.degree(v), k, v)
        asm.copies[v] = frozenset(range(first, asm.next_v))
    for u, v in sorted(h.underlying_pairs()):
        eids = []
        for i in range(k):
            (pu,) = asm.ports[(u, _rank(h, u, v), i)]
            (pv,) = asm.ports[(v, _rank(h, v, u), i)]
            eids.append(asm.add_edge(pu, pv))
        asm.bundles[(u, v)] = tuple(eids)
    return asm


def thicken(h, k):
    """One gamma copy per pattern vertex, ports joined by k parallel edges."""
    return _thicken(h, k).gadget(k, "subdivision", h)


def thicken_subcubic(h, k):
    """The thickening with every vertex of degree >= 4 turned into a tree.

    Spine vertices inherit the replaced vertex's class memberships, so the
    routing machinery keeps working on the result; the bundles keep their
    edge ids.
    """
    asm = _thicken(h, k)
    targets = sorted(v for v, eids in asm.incident.items() if len(eids) >= 4)
    spines = {w: asm.caterpillar(w) for w in targets}
    for classes in (asm.copies, asm.columns, asm.apex_groups, asm.ports):
        for key, vs in classes.items():
            classes[key] = frozenset(s for v in vs for s in spines.get(v, (v,)))
    out = asm.gadget(k, "subdivision-subcubic", h)
    if any(out.graph.degree(v) > 3 for v in out.graph.vertices):
        raise InvariantViolated("subcubic thickening has a vertex of degree > 3")
    return out


def thicken_minor(h, k):
    """Subcubic thickening with apices also replaced; models are minors."""
    # degree >= 4 apices are already trees; the rest replace trivially, so
    # the graph is thicken_subcubic's, whose degrees it checked
    return replace(thicken_subcubic(h, k), variant="minor")


# -- routing ---------------------------------------------------------------------


def _disjoint_paths(g, allowed, sources, sinks):
    """Vertex-disjoint paths from the source blob to each sink, or None.

    Unit-capacity max flow on the vertex-split digraph; the source blob is
    contracted, every other allowed vertex has capacity one.
    """
    inner = allowed - sources
    cap = {}
    adj = {}

    def arc(a, b):
        cap[(a, b)] = cap.get((a, b), 0) + 1
        cap.setdefault((b, a), 0)
        for p, q in ((a, b), (b, a)):
            lst = adj.setdefault(p, [])
            if q not in lst:
                lst.append(q)

    for v in inner:
        arc(("i", v), ("o", v))
    for a, b in g.edges.values():
        if a in inner and b in inner:
            arc(("o", a), ("i", b))
            arc(("o", b), ("i", a))
        elif a in sources and b in inner:
            arc("S", ("i", b))
        elif b in sources and a in inner:
            arc("S", ("i", a))
    for t in sinks:
        arc(("o", t), "T")

    init = dict(cap)
    for _ in range(len(sinks)):
        prev = {"S": None}
        queue = ["S"]
        while queue and "T" not in prev:
            x = queue.pop(0)
            for y in adj.get(x, []):
                if cap.get((x, y), 0) > 0 and y not in prev:
                    prev[y] = x
                    queue.append(y)
        if "T" not in prev:
            return None
        y = "T"
        while y != "S":
            x = prev[y]
            cap[(x, y)] -= 1
            cap[(y, x)] += 1
            y = x

    # net flow per arc; walk it from the source, one unit per path
    net = {
        ab: init.get(ab, 0) - c for ab, c in cap.items() if init.get(ab, 0) > c
    }
    paths = {}
    for _ in range(len(sinks)):
        path = []
        x = "S"
        while x != "T":
            nxt = next(y for y in adj.get(x, []) if net.get((x, y), 0) > 0)
            net[(x, nxt)] -= 1
            if nxt not in ("S", "T") and nxt[0] == "i":
                path.append(nxt[1])
            x = nxt
        paths[path[-1]] = tuple(path)
    if set(paths) != set(sinks):
        return None
    return paths


def _bundle_endpoint(gadget, eid, copy):
    a, b = gadget.graph.endpoints(eid)
    if a in gadget.copies[copy]:
        return a
    if b in gadget.copies[copy]:
        return b
    raise InvariantViolated("bundle edge misses its copy")


def route_avoiding(gadget, x):
    """Model of the pattern dodging the forbidden vertex set x.

    Picks an x-free column class per bundle and an x-free apex group plus
    adjacent columns per copy, then routes disjoint paths by max flow.
    """
    x = frozenset(x)
    if gadget.variant == "gamma":
        raise InvalidParameter("routing needs a thickened gadget")
    if stray := sorted(x - gadget.graph.vertices):
        raise UnknownIdentifier(f"forbidden ids not in the gadget: {stray}")
    if len(x) >= gadget.k:
        raise PreconditionViolated("forbidden set must have fewer than k vertices")
    h = gadget.pattern
    k = gadget.k
    minor = gadget.variant == "minor"
    if not minor and any(h.degree(v) > 3 for v in h.vertices) and gadget.variant == "subdivision-subcubic":
        raise InvalidParameter("subcubic gadget of a non-subcubic pattern has no subdivision model")

    chosen_edge = {}
    for (u, v), eids in sorted(gadget.bundles.items()):
        pick = None
        for i in range(k):
            cls = (
                gadget.columns[(u, _rank(h, u, v) * k + i)]
                | gadget.columns[(v, _rank(h, v, u) * k + i)]
            )
            if not (cls & x):
                pick = eids[i]
                break
        if pick is None:
            raise RoutingFailed(f"no free column class for bundle {(u, v)}")
        chosen_edge[(u, v)] = pick

    branch = {}
    branch_sets = {}
    paths = {}
    copy_paths = {}
    for v in sorted(h.vertices):
        d = h.degree(v)
        group = None
        for j in range(k):
            cand = set(gadget.apex_groups[(v, j)])
            for c in range(j * d, (j + 1) * d):
                cand |= gadget.columns[(v, c)]
            if not (cand & x):
                group = gadget.apex_groups[(v, j)]
                break
        if group is None:
            raise RoutingFailed(f"no free apex group in copy {v}")
        sinks = []
        for u in h.neighbors(v):
            key = (u, v) if u < v else (v, u)
            sinks.append(_bundle_endpoint(gadget, chosen_edge[key], v))
        allowed = (gadget.copies[v] - x) | group
        got = _disjoint_paths(gadget.graph, allowed, set(group), sinks)
        if got is None:
            raise RoutingFailed(f"no disjoint path system in copy {v}")
        copy_paths[v] = got
        if minor:
            bs = set(group)
            for p in got.values():
                bs.update(p)
            branch_sets[v] = frozenset(bs)
        else:
            (apex,) = group
            branch[v] = apex

    if minor:
        edge_map = {key: eid for key, eid in sorted(chosen_edge.items())}
        model = MinorModel(branch_sets, edge_map)
        if not verify_minor_model(gadget.graph, h, model):
            raise RoutingFailed("assembled minor model failed verification")
        return model

    for (u, v), eid in sorted(chosen_edge.items()):
        pu = copy_paths[u][_bundle_endpoint(gadget, eid, u)]
        pv = copy_paths[v][_bundle_endpoint(gadget, eid, v)]
        paths[(u, v)] = (branch[u],) + pu + tuple(reversed(pv)) + (branch[v],)
    model = SubdivisionModel(branch, paths)
    if not verify_subdivision_model(gadget.graph, h, model):
        raise RoutingFailed("assembled subdivision model failed verification")
    return model


# -- verification -----------------------------------------------------------------


def verify_subdivision_model(g, h, m):
    """Mechanical check of the subdivision-model invariants."""
    if set(m.branch) != set(h.vertices):
        return False
    imgs = list(m.branch.values())
    if len(set(imgs)) != len(imgs) or not set(imgs) <= g.vertices:
        return False
    pairs = set(h.underlying_pairs())
    if set(m.paths) != pairs:
        return False
    seen_internal = set()
    for (u, v), path in m.paths.items():
        if path[0] != m.branch[u] or path[-1] != m.branch[v]:
            return False
        if len(set(path)) != len(path):
            return False
        for a, b in zip(path, path[1:]):
            if not g.edges_between(a, b):
                return False
        internal = set(path[1:-1])
        if internal & set(imgs):
            return False
        if internal & seen_internal:
            return False
        seen_internal |= internal
    return True


def verify_minor_model(g, h, m):
    """Mechanical check of the minor-model invariants."""
    if set(m.branch_sets) != set(h.vertices):
        return False
    taken = set()
    for v, bs in m.branch_sets.items():
        if not bs or not bs <= g.vertices:
            return False
        if bs & taken:
            return False
        taken |= bs
        if not g.induced(bs).is_connected():
            return False
    if set(m.edge_map) != set(h.underlying_pairs()):
        return False
    eids = list(m.edge_map.values())
    if len(set(eids)) != len(eids):
        return False
    for (u, v), eid in m.edge_map.items():
        if eid not in g.edges:
            return False
        a, b = g.endpoints(eid)
        su, sv = m.branch_sets[u], m.branch_sets[v]
        if not ((a in su and b in sv) or (b in su and a in sv)):
            return False
    return True
