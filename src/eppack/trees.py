"""Exact min-max machinery for subtrees of a tree.

gallai realizes the packing/covering equality for subtree families via the
deepest-topmost-vertex greedy; rs_selection is a witness search for the
multi-family disjoint selection statement, capped like the exact oracles.
"""

from dataclasses import dataclass

from .certificates import (
    CoverCertificate,
    PackingCertificate,
    PatternDetector,
    PatternWitness,
)
from .errors import InvalidFamily, InvalidParameter
from .graph import Mode
from .oracles import Found, _search


@dataclass(frozen=True)
class SubtreeFamily:
    """A host tree plus vertex subsets each inducing a connected subtree."""

    tree: object  # MultiGraph, acyclic and connected
    members: tuple  # of frozensets

    def validate(self):
        if not self.tree.is_forest() or not self.tree.is_connected():
            raise InvalidFamily("host is not a tree")
        for i, mem in enumerate(self.members):
            if not mem:
                raise InvalidFamily(f"member {i} is empty")
            if not mem <= self.tree.vertices:
                raise InvalidFamily(f"member {i} leaves the host")
            sub = self.tree.induced(mem)
            if not sub.is_connected():
                raise InvalidFamily(f"member {i} does not induce a subtree")


def gallai(fam):
    """Equal-size subtree packing and vertex cover (exact min-max).

    Root at the smallest vertex; repeatedly pick the remaining member whose
    topmost vertex is deepest, put that vertex in the cover, and discard
    every member through it.  Ties go to the smaller topmost vertex, then
    the smaller member index, so one sweep in that order makes the picks.
    """
    fam.validate()
    tree = fam.tree
    if not tree.vertices:
        raise InvalidFamily("empty host tree")
    root = min(tree.vertices)
    depth = {root: 0}
    for v, kids in tree.rooted(root).items():
        for u in kids:
            depth[u] = depth[v] + 1

    tops = []
    for i, mem in enumerate(fam.members):
        top = min(mem, key=lambda v: (depth[v], v))
        tops.append((-depth[top], top, i))

    chosen = []
    cover = set()
    for _, top, idx in sorted(tops):
        if cover.isdisjoint(fam.members[idx]):
            chosen.append(idx)
            cover.add(top)

    members = tuple(
        PatternWitness(
            fam.members[i],
            frozenset(tree.induced(fam.members[i]).spanning_forest_edges()),
        )
        for i in chosen
    )
    return (
        PackingCertificate(Mode.VERTEX, members),
        CoverCertificate(Mode.VERTEX, frozenset(cover)),
    )


def family_detector(fam):
    """Detector whose witnesses are the family members still intact."""
    def find(g):
        for mem in fam.members:
            if mem <= g.vertices:
                sub = g.induced(mem)
                if sub.is_connected():
                    return PatternWitness(
                        mem, frozenset(sub.spanning_forest_edges())
                    )
        return None

    return PatternDetector("subtree-family", find, connected_patterns=True)


def rs_selection(tree, family_members, k):
    """k members per family, globally vertex-disjoint, or None.

    Backtracking over families in order; guaranteed to succeed whenever each
    family holds k*q pairwise disjoint members, which callers can check via
    gallai beforehand.
    """
    if k < 1 or not family_members:
        raise InvalidParameter("rs_selection needs k >= 1 and q >= 1")
    fams = [sorted(map(frozenset, members), key=sorted) for members in family_members]
    q = len(fams)

    def expand(slot, used, picked):  # slot i * k + j holds family i's j-th pick
        if slot == q * k:
            yield Found(picked)
            return
        i, j = divmod(slot, k)
        start = fams[i].index(picked[-1]) + 1 if j > 0 else 0
        for mem in fams[i][start:]:
            if not mem & used:
                yield slot + 1, used | mem, picked + [mem]

    picked, _ = _search([(0, frozenset(), [])], expand)
    return None if picked is None else [picked[i * k:(i + 1) * k] for i in range(q)]
