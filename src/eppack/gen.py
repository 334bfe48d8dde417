"""Seeded random instance generators.

Everything is driven by the SplitMix64 generator in rng, so identical
parameters and seed give identical instances on any platform.
"""

from .errors import InvalidParameter
from .graph import MultiGraph
from .rng import SplitMix64


def gnp(n, p, seed):
    """Simple binomial random graph on vertices 0..n-1.

    Pair (u, v), u < v, gets the row-major draw u(n-1) - u(u-1)/2 + v-u-1
    of the seed's stream, and is an edge when that draw's ``random()`` is
    below p; edges are listed in that order.
    """
    if n < 0 or not (0.0 <= p <= 1.0):
        raise InvalidParameter("gnp needs n >= 0 and p in [0, 1]")
    edges = []
    u, row_start, row_end = 0, 0, n - 1  # row u holds draws [row_start, row_end)
    for i in SplitMix64(seed).below(n * (n - 1) // 2, p):
        while i >= row_end:
            u += 1
            row_start, row_end = row_end, row_end + n - 1 - u
        edges.append((u, u + 1 + i - row_start))
    return MultiGraph.from_edges(range(n), edges)


def planar_stacked(n, deletions, seed):
    """Stacked triangulation on n vertices, then random edge deletions.

    Planar by construction: grow from K_4 by repeatedly placing a new
    vertex inside a face and joining it to the face's three corners.
    """
    if n < 4:
        raise InvalidParameter("stacked triangulations need n >= 4")
    if deletions < 0:
        raise InvalidParameter("deletions must be nonnegative")
    rng = SplitMix64(seed)
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for v in range(4, n):
        f = faces.pop(rng.randrange(len(faces)))
        a, b, c = f
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    g = MultiGraph.from_edges(range(n), edges)
    drop = rng.sample(sorted(g.edges), min(deletions, g.m))
    return g.delete_edges(drop)


def random_tree(n, seed):
    """Random recursive tree on vertices 0..n-1."""
    if n < 1:
        raise InvalidParameter("trees need n >= 1")
    rng = SplitMix64(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return MultiGraph.from_edges(range(n), edges)


def random_subtree_family(n, count, max_size, seed):
    """Random tree plus random connected subsets grown by neighbor steps."""
    if count < 1 or max_size < 1:
        raise InvalidParameter("need count >= 1 and max_size >= 1")
    rng = SplitMix64(seed)
    tree = random_tree(n, rng.next_u64())
    members = []
    for _ in range(count):
        size = rng.randint(1, max_size)
        current = {rng.randrange(n)}
        while len(current) < size:
            frontier = sorted(u for v in current for u in tree.neighbors(v) if u not in current)
            if not frontier:
                break
            current.add(frontier[rng.randrange(len(frontier))])
        members.append(frozenset(current))
    from .trees import SubtreeFamily

    return SubtreeFamily(tree, tuple(members))
