"""Parsers, readers and formatters for the text formats.

Graphs use the PACE-style `p gr` format with 1-based indices; repeated
edge lines are parallel edges.  Formatters return sorted, normalized text,
so a format/parse/format cycle is byte-identical; the CLI writes the files.
"""

import json

from .certificates import certificate_from_dict
from .decomp import TreeDecomposition
from .errors import InvalidParameter, UnknownIdentifier, WouldCreateLoop
from .gadgets import (
    MinorModel,
    SubdivisionModel,
    gamma,
    thicken,
    thicken_minor,
    thicken_subcubic,
)
from .graph import MultiGraph
from .treepart import TreePartition
from .trees import SubtreeFamily


def _read_text(path):
    """The text of a file; InvalidParameter if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidParameter(f"{path} is not UTF-8 text: {exc}") from None


def _read_json(path, what):
    try:
        return json.loads(_read_text(path))
    except ValueError as exc:
        raise InvalidParameter(f"{what} is not JSON: {exc}") from None


def _data_lines(text):
    return [line for line in map(str.strip, text.splitlines())
            if line and not line.startswith("c")]


def _ints(line, skip=0, count=None):
    """The integers after the first ``skip`` tokens; ``count`` fixes how many."""
    toks = line.split()[skip:]
    if count is not None and len(toks) != count:
        raise InvalidParameter(f"expected {count} integers in line {line!r}")
    try:
        return [int(tok) for tok in toks]
    except ValueError:
        raise InvalidParameter(f"non-integer token in line {line!r}") from None


def _header(text, tag, count, name=None):
    """The data lines of a text and the ``count`` counts of its ``tag`` line,
    which must come first; no count may be negative."""
    lines = _data_lines(text)
    if not lines or not lines[0].startswith(tag):
        raise InvalidParameter(f"missing {name or tag!r} header")
    counts = _ints(lines[0], skip=len(tag.split()), count=count)
    if min(counts) < 0:
        raise InvalidParameter(f"negative count in line {lines[0]!r}")
    return lines, counts


# -- graphs ------------------------------------------------------------------


def parse_gr(text):
    lines, (n, m) = _header(text, "p gr", 2)
    if len(lines) - 1 != m:
        raise InvalidParameter(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = {}
    for i, line in enumerate(lines[1:]):
        try:
            u, v = map(int, line.split())
        except ValueError:  # _ints words the message
            u, v = _ints(line, count=2)
        if not (0 < u <= n and 0 < v <= n):
            raise InvalidParameter(f"vertex out of range in line {line!r}")
        edges[i] = (u - 1, v - 1)
    return MultiGraph(range(n), edges)


def _edge_lines(edges, pos):
    """Sorted ``a b`` lines, one per edge, with endpoints renumbered by ``pos``."""
    pairs = sorted(tuple(sorted((pos[u], pos[v]))) for u, v in edges.values())
    return [f"{a} {b}" for a, b in pairs]


def format_gr(g):
    pos = {v: i + 1 for i, v in enumerate(sorted(g.vertices))}
    lines = [f"p gr {g.n} {g.m}", *_edge_lines(g.edges, pos)]
    return "\n".join(lines) + "\n"


def read_gr(path):
    return parse_gr(_read_text(path))


# -- bag files: tree decompositions and tree partitions ------------------------


def _parse_bags(text, kind, header_len):
    """Tree and bags of an ``s <kind>`` file, both indexed from 0.

    The header holds ``header_len`` integers, the first being the number of
    bags; then come ``b <bag> <vertex>...`` lines and tree-edge lines.
    """
    lines, (nbags, *_) = _header(text, f"s {kind}", header_len)
    bags = {}
    tree_edges = []
    for line in lines[1:]:
        if line.split()[0] == "b":
            ids = _ints(line, skip=1)
            if not ids:
                raise InvalidParameter(f"bag line without an index: {line!r}")
            bags[ids[0] - 1] = frozenset(v - 1 for v in ids[1:])
        else:
            a, b = _ints(line, count=2)
            tree_edges.append((a - 1, b - 1))
    if set(bags) != set(range(nbags)):
        raise InvalidParameter("bag indices must be 1..#bags")
    return MultiGraph.from_edges(range(nbags), tree_edges), bags


def _format_bags(header, nodes, bags, tree):
    """Bag lines numbered from 1 in ``nodes`` order, then sorted tree edges."""
    pos = {t: i + 1 for i, t in enumerate(nodes)}
    lines = [header]
    for t in nodes:
        vs = " ".join(str(v + 1) for v in sorted(bags[t]))
        lines.append(f"b {pos[t]} {vs}".rstrip())
    lines += _edge_lines(tree.edges, pos)
    return "\n".join(lines) + "\n"


def parse_td(text):
    return TreeDecomposition(*_parse_bags(text, "td", 3))


def format_td(td, n):
    nodes = sorted(td.bags)
    header = f"s td {len(nodes)} {td.width() + 1} {n}"
    return _format_bags(header, nodes, td.bags, td.tree)


def read_td(path):
    return parse_td(_read_text(path))


def parse_tp(text):
    tree, bags = _parse_bags(text, "tp", 2)
    return TreePartition(tree, 0, bags)


def format_tp(tp, n):
    # the root comes out as bag 1, which parse_tp takes as the root
    nodes = [tp.root] + sorted(set(tp.bags) - {tp.root})
    return _format_bags(f"s tp {len(nodes)} {n}", nodes, tp.bags, tp.tree)


def read_tp(path):
    return parse_tp(_read_text(path))


# -- subtree families ---------------------------------------------------------------


def parse_family(text):
    lines, (n,) = _header(text, "t ", 1, "t <n>")
    tree_edges = []
    for line in lines[1 : n]:
        a, b = _ints(line, count=2)
        tree_edges.append((a - 1, b - 1))
    members = []
    for line in lines[max(n, 1):]:  # a tree of 0 vertices has no edge lines
        members.append(frozenset(v - 1 for v in _ints(line)))
    tree = MultiGraph.from_edges(range(n), tree_edges)
    return SubtreeFamily(tree, tuple(members))


def format_family(fam):
    pos = {v: v + 1 for v in fam.tree.vertices}
    lines = [f"t {fam.tree.n}", *_edge_lines(fam.tree.edges, pos)]
    for mem in fam.members:
        lines.append(" ".join(str(v + 1) for v in sorted(mem)))
    return "\n".join(lines) + "\n"


def read_family(path):
    return parse_family(_read_text(path))


# -- certificates ---------------------------------------------------------------------


def format_certificate(cert, bound_claimed, hypotheses_held):
    """The JSON text of a certificate; a claim that is None is left out.

    The CLI renders every certificate it writes through this function.
    """
    return json.dumps(cert.to_dict(bound_claimed, hypotheses_held), indent=1) + "\n"


def read_certificate(path):
    return certificate_from_dict(_read_json(path, "certificate"))


# -- gadget metadata ----------------------------------------------------------------

_GENERATORS = {
    "gamma": gamma,
    "subdivision": thicken,
    "subdivision-subcubic": thicken_subcubic,
    "minor": thicken_minor,
}


def format_gadget_meta(gadget):
    """The generator call that remakes the gadget: variant, k, and d or pattern."""
    d = {"variant": gadget.variant, "k": gadget.k}
    if gadget.pattern is None:
        d["d"] = len(gadget.columns) // gadget.k  # gamma has d*k columns
    else:
        h = gadget.pattern
        d["pattern"] = {
            "vertices": sorted(h.vertices),
            "edges": [[eid, u, v] for eid, (u, v) in sorted(h.edges.items())],
        }
    return json.dumps(d, indent=1) + "\n"


def read_gadget_meta(path):
    """Gadget remade by the call its ``.meta`` file records.

    Keys other than the call's are ignored; InvalidParameter if it is
    malformed.
    """
    d = _read_json(path, "gadget metadata")
    try:
        make, k = _GENERATORS[d["variant"]], d["k"]
        if make is gamma:
            first = d["d"]
        else:
            pd = d["pattern"]
            first = MultiGraph(
                pd["vertices"], {eid: (u, v) for eid, u, v in pd["edges"]}
            )
    except (KeyError, TypeError, ValueError, UnknownIdentifier, WouldCreateLoop) as exc:
        raise InvalidParameter(f"malformed gadget metadata: {exc!r}") from None
    if type(k) is not int or (make is gamma and type(first) is not int):
        raise InvalidParameter("malformed gadget metadata: k and d must be integers")
    return make(first, k)


def model_to_dict(model):
    if isinstance(model, SubdivisionModel):
        return {
            "kind": "subdivision",
            "branch": {str(v): b for v, b in sorted(model.branch.items())},
            "paths": [
                [list(key), list(path)] for key, path in sorted(model.paths.items())
            ],
        }
    if isinstance(model, MinorModel):
        return {
            "kind": "minor",
            "branch_sets": {
                str(v): sorted(bs) for v, bs in sorted(model.branch_sets.items())
            },
            "edge_map": [
                [list(key), eid] for key, eid in sorted(model.edge_map.items())
            ],
        }
    raise InvalidParameter("unknown model type")
