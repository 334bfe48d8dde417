"""Timing wrappers installed at run time around eppack's public functions.

``Tracer.install`` replaces each layer function, wherever eppack's modules
(or the workload module) hold it, by a wrapper that records one span per
call: function, start, end, parent span and instance.  It also keeps
per-function totals: calls, inclusive time, self time (span time minus the
time of its child spans) and, for the exact oracles, search nodes; a layer's
metrics sum the functions that share its name.  Spans stay in memory
and are written once, by ``write``, when the run ends.
"""

import array
import importlib
import json
import sys
from time import perf_counter

ALL = ("cycles-sparse", "oracle-desk", "decomp-desk")

# (layer, module, attribute path, workloads on which calls must be > 0).
# The last field is the self-check, made per function: a renamed or inlined
# function then shows up as a failed run instead of a silent zero.
LAYERS = (
    ("graph.init", "eppack.graph", "MultiGraph.__init__", ALL),
    ("graph.delete", "eppack.graph", "MultiGraph.delete_vertices", ALL),
    ("graph.delete", "eppack.graph", "MultiGraph.delete_edges", ("oracle-desk",)),
    ("graph.induced", "eppack.graph", "MultiGraph.induced", ("decomp-desk",)),
    ("graph.shortest_cycle", "eppack.graph", "MultiGraph.shortest_cycle", ALL),
    ("cycles.reduce_low_degree", "eppack.cycles", "reduce_low_degree", ("cycles-sparse",)),
    ("cycles.ep_cycles", "eppack.cycles", "ep_cycles", ("cycles-sparse",)),
    ("cycles.expand_cycle", "eppack.cycles", "ReductionTrace.expand_cycle", ("cycles-sparse",)),
    ("oracles.vpack", "eppack.oracles", "exact_vpack_cycles", ("oracle-desk", "decomp-desk")),
    ("oracles.vcover", "eppack.oracles", "exact_vcover_cycles", ("oracle-desk",)),
    ("oracles.epack", "eppack.oracles", "exact_epack_cycles", ("oracle-desk",)),
    ("oracles.ecover", "eppack.oracles", "exact_ecover_cycles", ("oracle-desk",)),
    ("oracles.tpack", "eppack.oracles", "exact_pack_subgraph", ("oracle-desk",)),
    ("oracles.tcover", "eppack.oracles", "exact_cover_subgraph", ("oracle-desk",)),
    ("iso.enumerate_copies", "eppack.iso", "enumerate_copies", ("oracle-desk",)),
    ("certificates.verify_packing", "eppack.certificates", "verify_packing", ALL),
    ("certificates.verify_cover", "eppack.certificates", "verify_cover", ALL),
    ("io.parse_gr", "eppack.io", "parse_gr", ("cycles-sparse",)),
    ("io.certificate_json", "workloads", "certificate_json", ("cycles-sparse",)),
    ("decomp.exact_elimination_td", "eppack.decomp", "exact_elimination_td", ("decomp-desk",)),
    ("decomp.min_fill_td", "eppack.decomp", "min_fill_td", ("decomp-desk",)),
    ("decomp.to_nice", "eppack.decomp", "to_nice", ("decomp-desk",)),
    ("decomp.balanced_separation", "eppack.decomp", "balanced_separation", ("decomp-desk",)),
    ("decomp.cover_connected_bounded_tw", "eppack.decomp", "cover_connected_bounded_tw", ("decomp-desk",)),
    ("treepart.bfs_layer_tp", "eppack.treepart", "bfs_layer_tp", ("decomp-desk",)),
    ("treepart.inductive_edge_cover", "eppack.treepart", "inductive_edge_cover", ("decomp-desk",)),
    ("trees.gallai", "eppack.trees", "gallai", ("decomp-desk",)),
)

# Oracles whose ExactResult.explored counts search nodes.  The closed-form
# ecover oracle searches nothing, so it reports calls and time only.
SEARCHING = ("oracles.vpack", "oracles.vcover", "oracles.epack", "oracles.tpack", "oracles.tcover")

# Per-layer metrics printed by a traced run: (name, unit, better).
PER_LAYER = (
    [(f"{layer}.{field}", unit, "lower")
     for layer in ("graph.init", "graph.delete", "graph.shortest_cycle",
                   "graph.induced", "cycles.reduce_low_degree",
                   "iso.enumerate_copies")
     for field, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"{layer}.self_s", "s", "lower")
       for layer in ("cycles.ep_cycles", "cycles.expand_cycle")]
    + [(f"{layer}.{field}", unit, "lower")
       for layer in SEARCHING
       for field, unit in (("calls", "count"), ("nodes", "count"),
                           ("self_s", "s"), ("us_per_node", "us"))]
    + [("oracles.ecover.calls", "count", "lower"),
       ("oracles.ecover.self_s", "s", "lower")]
    + [(f"{layer}.self_s", "s", "lower")
       for layer, _, _, _ in LAYERS
       if layer.split(".")[0] in ("certificates", "io", "decomp", "treepart", "trees")]
    + [("trace.overhead_frac", "ratio", "lower")]
)

MAX_SPANS = 4_000_000  # beyond this only the totals are kept (~100 MB of spans)


class Tracer:
    def __init__(self):
        self.names = []  # layer name per function id
        self.index = {}  # function ("module.path") -> id
        self.calls, self.incl, self.self_s, self.nodes = [], [], [], []
        self.span_name = array.array("H")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("i")
        self.span_instance = array.array("i")
        self.dropped = 0
        self.instance = -1
        self.stack = []  # [span id or -1, time of child spans]
        self._undo = []

    def layer_id(self, name, function=None):
        """The id of ``function`` (default: ``name``), a part of layer ``name``."""
        key = function or name
        if key not in self.index:
            self.index[key] = len(self.names)
            self.names.append(name)
            for col in (self.calls, self.incl, self.self_s, self.nodes):
                col.append(0)
        return self.index[key]

    def begin(self, idx):
        """Open a span of layer ``idx``; returns its start time."""
        t0 = perf_counter()
        sid = len(self.span_start)
        if sid < MAX_SPANS:
            self.span_name.append(idx)
            self.span_start.append(t0)
            self.span_end.append(0.0)
            self.span_parent.append(self.stack[-1][0] if self.stack else -1)
            self.span_instance.append(self.instance)
        else:
            self.dropped += 1
            sid = -1
        self.stack.append([sid, 0.0])
        return t0

    def end(self, idx, t0, nodes=0):
        t1 = perf_counter()
        sid, child = self.stack.pop()
        if sid >= 0:
            self.span_end[sid] = t1
        dur = t1 - t0
        self.calls[idx] += 1
        self.incl[idx] += dur
        self.self_s[idx] += dur - child
        self.nodes[idx] += nodes
        if self.stack:
            self.stack[-1][1] += dur

    def wrap(self, name, function, fn):
        idx = self.layer_id(name, function)
        searching = name in SEARCHING

        def traced(*args, **kwargs):
            t0 = self.begin(idx)
            nodes = 0
            try:
                result = fn(*args, **kwargs)
                if searching:
                    nodes = result.explored
                return result
            finally:
                self.end(idx, t0, nodes)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every layer function; returns layers that could not be found."""
        missing = []
        for name, modname, path, _ in LAYERS:
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{modname}.{path}")
                continue
            wrapped = self.wrap(name, f"{modname}.{path}", original)
            if outer:  # a method: patch the class
                self._patch(owner, attr, original, wrapped)
                continue
            # a function: patch every module that imported it by name
            for mod in list(sys.modules.values()):
                modn = getattr(mod, "__name__", "")
                if modn.startswith("eppack") or modn == "workloads":
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, original, wrapped)
        return missing

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def total(self, name, what):
        """Sum of ``what`` over the functions of layer ``name``."""
        column = getattr(self, what)
        return sum(column[i] for i, n in enumerate(self.names) if n == name)

    def self_check(self, workload):
        """Functions whose calls must be > 0 on this workload but are not."""
        needed = [f"{modname}.{path}" for _, modname, path, heavy in LAYERS
                  if workload in heavy]
        return sorted(f for f in needed
                      if f not in self.index or self.calls[self.index[f]] == 0)

    def metrics(self, overhead_frac):
        out = {}
        for name, unit, _ in PER_LAYER:
            layer, field = name.rsplit(".", 1)
            if field == "overhead_frac":
                value = overhead_frac
            elif field == "us_per_node":
                nodes = self.total(layer, "nodes")
                value = 1e6 * self.total(layer, "incl") / nodes if nodes else 0.0
            else:
                value = self.total(layer, field)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, stem):
        """Write the spans: ``stem.json`` describes ``stem.bin``'s columns."""
        columns = ("span_name", "span_start", "span_end", "span_parent", "span_instance")
        with open(f"{stem}.bin", "wb") as fh:
            for col in columns:
                getattr(self, col).tofile(fh)
        header = {
            "names": self.names,
            "functions": sorted(self.index, key=self.index.get),
            "spans": len(self.span_start),
            "dropped": self.dropped,
            "columns": [
                [col, getattr(self, col).typecode, getattr(self, col).itemsize]
                for col in columns
            ],
            "clock": "time.perf_counter, seconds",
        }
        with open(f"{stem}.json", "w") as fh:
            json.dump(header, fh, indent=1)
