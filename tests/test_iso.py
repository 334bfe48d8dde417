from hypothesis import example, given, settings

from helpers import multigraphs, random_multigraph, ref_enumerate_copies, ref_enumerate_cycles

from eppack.certificates import cycles_detector
from eppack.gen import gnp
from eppack.graph import MultiGraph
from eppack.iso import _plan, _vertex_maps, enumerate_copies, enumerate_cycles, find_copy
from eppack.rng import SplitMix64

# pattern -> |Aut(pattern)|; the two multigraph counts are by hand: a double
# edge with a pendant edge has no symmetry, and a 4-cycle with two opposite
# double edges keeps them under the swap of either pair's ends
PATTERNS = {
    "k3": (MultiGraph.complete(3), 6),
    "k4": (MultiGraph.complete(4), 24),
    "path3": (MultiGraph.path_graph(3), 2),
    "k33": (MultiGraph.complete_bipartite(3, 3), 72),
    "c4": (MultiGraph.cycle_graph(4), 8),
    "theta2+pendant": (MultiGraph.from_edges(range(3), [(0, 1), (0, 1), (1, 2)]), 1),
    "c4+two-doubles": (
        MultiGraph.from_edges(range(4), [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 0)]),
        4,
    ),
}


def _same_as_reference(g):
    for pattern, _ in PATTERNS.values():
        assert enumerate_copies(g, pattern) == ref_enumerate_copies(g, pattern)
        first = ref_enumerate_copies(g, pattern, first_only=True)
        assert find_copy(g, pattern) == (first[0] if first else None)


@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=9, max_pairs=14))
@example(MultiGraph.complete(6))
@example(MultiGraph.complete_bipartite(3, 4))
@example(MultiGraph.petersen())
def test_copies_match_reference(g):
    # one vertex map per copy gives the same sorted copies, and the first
    # map of the unbroken search keeps every condition, so the same first copy
    _same_as_reference(g)


def test_copies_match_reference_on_fixed_seeds():
    for seed in range(30):
        _same_as_reference(gnp(6 + seed % 5, 0.3 + 0.01 * seed, seed))
    rng = SplitMix64(1207)
    for _ in range(60):
        _same_as_reference(random_multigraph(rng, max_n=9, max_m=18))


def test_automorphism_counts():
    for name, (pattern, size) in PATTERNS.items():
        assert len(_plan(pattern)[2]) == size, name
    # the cache is keyed by the pattern's value, not its identity
    assert _plan(MultiGraph.complete(3)) is _plan(MultiGraph.complete(3))


@settings(max_examples=100, deadline=None)
@given(multigraphs(max_n=9, max_pairs=16, simple=True))
def test_each_copy_through_one_map(g):
    # on a simple host a simple pattern's copy has one edge choice, so the
    # maps and the copies must be as many
    for name in ("k3", "k4", "path3", "c4"):
        pattern = PATTERNS[name][0]
        maps = _vertex_maps(_plan(pattern)[0], g._adj, g.degrees(), sorted(g._adj))
        assert sum(1 for _ in maps) == len(enumerate_copies(g, pattern)), name


@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=9, max_pairs=14))
def test_cycles_match_reference(g):
    # the DFS confined to the 2-core left by the earlier roots finds the same
    # cycles as the one that walks every vertex above the root
    assert enumerate_cycles(g) == ref_enumerate_cycles(g)


def test_cycles_match_reference_on_fixed_seeds():
    for seed in range(30):
        g = gnp(6 + seed % 5, 0.3 + 0.01 * seed, seed)
        assert enumerate_cycles(g) == ref_enumerate_cycles(g)
    rng = SplitMix64(1208)
    for _ in range(200):
        g = random_multigraph(rng, max_n=9, max_m=16)
        assert enumerate_cycles(g) == ref_enumerate_cycles(g)
    for g in (MultiGraph.petersen(), MultiGraph.complete(6), MultiGraph.theta(4)):
        assert enumerate_cycles(g) == ref_enumerate_cycles(g)


def test_enumerate_cycles_on_a_long_cycle():
    # the DFS keeps one step iterator per path vertex, not a frame
    g = MultiGraph.cycle_graph(1500)
    assert [c.vertices for c in enumerate_cycles(g)] == [tuple(range(1500))]
    assert len(cycles_detector().enumerate(g)) == 1
