"""The `ep` command line tool.

Exit codes: 0 for success or a packing outcome, 10 when a cover is
returned, 1 when a verification fails, 2 on any error.
"""

import argparse
import json
import os
import sys

from . import bench as bench_mod
from . import gadgets, io, oracles, treepart
from .certificates import (
    PackingCertificate,
    builtin_detectors,
    verify_cover,
    verify_packing,
)
from .cycles import ep_cycles
from .decomp import (
    Ceiling,
    balanced_separation,
    cover_connected_bounded_tw,
    disconnected_pattern_ep,
    to_nice,
    validate_td,
)
from .errors import EPError, InvalidParameter
from .graph import Mode, MultiGraph
from .trees import gallai, rs_selection

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ERROR = 2
EXIT_COVER = 10


def _pattern_graph(name):
    shorthand = {
        "k2": MultiGraph.complete(2),
        "k3": MultiGraph.complete(3),
        "k4": MultiGraph.complete(4),
        "k5": MultiGraph.complete(5),
        "k33": MultiGraph.complete_bipartite(3, 3),
        "path3": MultiGraph.path_graph(3),
        "petersen": MultiGraph.petersen(),
    }
    if name in shorthand:
        return shorthand[name]
    if os.path.exists(name):
        return io.read_gr(name)
    raise EPError(f"unknown pattern {name!r}")


def _detector(name):
    dets = builtin_detectors()
    if name not in dets:
        raise InvalidParameter(
            f"unknown pattern family {name!r}; choose from {', '.join(sorted(dets))}"
        )
    return dets[name]


def _write(path, text):
    """The one place the CLI opens an output file."""
    with open(path, "w") as fh:
        fh.write(text)


def _emit(args, text):
    if getattr(args, "output", None):
        _write(args.output, text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    _emit(args, json.dumps(obj, indent=1) + "\n")


def _verdict(check):
    """Print a check's verdict; exit 0 if it holds, 1 if not."""
    print("valid" if check else f"invalid: {check.violations}")
    return EXIT_OK if check else EXIT_INVALID


def _emit_outcome(args, outcome):
    """Write the certificate with its claims; exit 0 for a packing, 10 for a cover."""
    report = outcome.report
    _emit(
        args,
        io.format_certificate(
            outcome.certificate, report.bound_claimed, report.hypotheses_held
        ),
    )
    return EXIT_OK if outcome.packing is not None else EXIT_COVER


def cmd_cycles(args):
    g = io.read_gr(args.input)
    mode = Mode.parse(args.mode)
    outcome = ep_cycles(g, args.k, mode, args.c_const)
    code = _emit_outcome(args, outcome)
    kind = "packing" if code == EXIT_OK else "cover"
    print(f"{kind} of size {len(outcome.certificate)}", file=sys.stderr)
    return code


CYCLE_ORACLES = {
    "vpack-cycles": oracles.exact_vpack_cycles,
    "vcover-cycles": oracles.exact_vcover_cycles,
    "epack-cycles": oracles.exact_epack_cycles,
    "ecover-cycles": oracles.exact_ecover_cycles,
}


def cmd_oracle(args):
    g = io.read_gr(args.input)
    if args.which in ("pack-sub", "cover-sub"):
        pattern = _pattern_graph(args.pattern)
        mode = Mode.parse(args.mode)
        fn = (
            oracles.exact_pack_subgraph
            if args.which == "pack-sub"
            else oracles.exact_cover_subgraph
        )
        result = fn(g, pattern, mode)
    else:
        result = CYCLE_ORACLES[args.which](g)
    print(result.value)
    if args.output:
        _emit(args, io.format_certificate(result.witness, None, None))
    return EXIT_OK


def cmd_trees(args):
    if args.action == "gallai":
        fam = io.read_family(args.input[0])
        packing, cover = gallai(fam)
        print(f"packing {len(packing)} cover {len(cover)}")
        if args.output:
            _emit_json(args, {"packing": packing.to_dict(), "cover": cover.to_dict()})
        return EXIT_OK
    fams = [io.read_family(path) for path in args.input]
    tree = fams[0].tree
    if any(f.tree != tree for f in fams[1:]):
        raise EPError("all family files must share one tree")
    got = rs_selection(tree, [list(f.members) for f in fams], args.k)
    if got is None:
        print("no selection")
        return EXIT_COVER
    print("selection found")
    if args.output:
        _emit_json(args, [[sorted(m) for m in per] for per in got])
    return EXIT_OK


def cmd_decomp(args):
    g = io.read_gr(args.input)
    td = io.read_td(args.td)
    if args.action == "validate":
        return _verdict(validate_td(g, td))
    if args.action == "nice":
        ntd = to_nice(g, td)
        _emit(args, io.format_td(ntd.to_td(), g.n))
        return EXIT_OK
    if args.action == "separate":
        det = _detector(args.patterns)
        ntd = to_nice(g, td)
        sep = balanced_separation(g, ntd, det.exact_vpack)
        _emit_json(args, {"a": sorted(sep.a), "b": sorted(sep.b)})
        return EXIT_OK
    if args.action == "cover":
        det = _detector(args.patterns)
        coeff = args.ceiling_coeff or max(1, td.width())
        ceiling = Ceiling(lambda k: coeff * k)
        cover = cover_connected_bounded_tw(g, det, ceiling, td)
        _emit(args, io.format_certificate(cover, None, None))
        return EXIT_COVER if cover.elements else EXIT_OK
    # disconnected
    dets = [_detector(name) for name in args.patterns.split(",")]
    outcome = disconnected_pattern_ep(g, td, dets, args.k)
    return _emit_outcome(args, outcome)


def cmd_tp(args):
    g = io.read_gr(args.input)
    tp = io.read_tp(args.tp)
    if args.action == "validate":
        return _verdict(treepart.validate_tp(g, tp))
    if args.action == "width":
        print(treepart.tp_width(g, tp))
        return EXIT_OK
    det = _detector(args.patterns)
    outcome = treepart.inductive_edge_cover(g, tp, det, args.k)
    return _emit_outcome(args, outcome)


def cmd_gadget(args):
    if args.action == "gamma":
        gadget = gadgets.gamma(args.d, args.k)
    elif args.action == "thicken":
        h = _pattern_graph(args.pattern)
        if args.minor:
            gadget = gadgets.thicken_minor(h, args.k)
        elif args.subcubic:
            gadget = gadgets.thicken_subcubic(h, args.k)
        else:
            gadget = gadgets.thicken(h, args.k)
    else:
        if args.input is None:
            raise InvalidParameter("gadget route needs -i, a gadget .meta file")
        try:
            forbidden = frozenset(
                int(tok) for tok in args.x.split(",") if tok.strip()
            )
        except ValueError:
            raise InvalidParameter(
                f"-x takes comma-separated vertex ids, got {args.x!r}"
            ) from None
        gadget = io.read_gadget_meta(args.input)
        model = gadgets.route_avoiding(gadget, forbidden)
        _emit_json(args, io.model_to_dict(model))
        return EXIT_OK
    if args.output:
        _write(args.output, io.format_gr(gadget.graph))
        _write(args.output + ".meta", io.format_gadget_meta(gadget))
    print(f"{gadget.graph.n} vertices, {gadget.graph.m} edges")
    return EXIT_OK


def cmd_fuzz(args):
    fn = bench_mod.fuzz_tuza if args.target == "tuza" else bench_mod.fuzz_jones
    report = fn(args.trials, args.max_n, args.seed)
    print(
        f"{report.trials} trials, max ratio {report.max_ratio:.3f}, "
        f"{len(report.violations)} violations"
    )
    return EXIT_OK if not report.violations else EXIT_INVALID


def cmd_bench(args):
    table = bench_mod.bench_gap(
        Mode.parse(args.mode), args.k_max, args.n, args.p, args.seed
    )
    _emit(args, table.to_csv())
    return EXIT_OK


def cmd_verify(args):
    g = io.read_gr(args.input)
    cert = io.read_certificate(args.certificate)
    det = _detector(args.patterns)
    verify = verify_packing if isinstance(cert, PackingCertificate) else verify_cover
    return _verdict(verify(g, det, cert))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ep", description="packing/covering duality toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(fn=fn)
        return p

    def option(*flags, **kw):  # a parent parser that declares one shared option
        shared = argparse.ArgumentParser(add_help=False)
        shared.add_argument(*flags, **kw)
        return shared

    inp = option("-i", "--input", required=True)
    out = option("-o", "--output")
    patterns = option("--patterns", default="cycles")
    mode = option("--mode", default="v", choices=["v", "e"])

    p = command("cycles", cmd_cycles, "constructive cycle packing or cover", inp, mode, out)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--c-const", type=float, default=4.0)

    p = command("oracle", cmd_oracle, "exact ground-truth solvers", inp, mode, out)
    p.add_argument("which", choices=[*CYCLE_ORACLES, "pack-sub", "cover-sub"])
    p.add_argument("--pattern", default="k3")

    p = command("trees", cmd_trees, "subtree family packing and selection", out)
    p.add_argument("action", choices=["gallai", "select"])
    p.add_argument("-i", "--input", nargs="+", required=True)
    p.add_argument("-k", type=int, default=1)

    p = command("decomp", cmd_decomp, "tree decomposition machinery", inp, patterns, out)
    p.add_argument(
        "action", choices=["validate", "nice", "separate", "cover", "disconnected"]
    )
    p.add_argument("-t", "--td", required=True)
    p.add_argument("-k", type=int, default=1)
    p.add_argument("--ceiling-coeff", type=int, default=None)

    p = command("tp", cmd_tp, "tree partition machinery", inp, patterns, out)
    p.add_argument("action", choices=["validate", "width", "cover"])
    p.add_argument("-t", "--tp", required=True)
    p.add_argument("-k", type=int, default=1)

    p = command("gadget", cmd_gadget, "lower-bound gadget generators", out)
    p.add_argument("action", choices=["gamma", "thicken", "route"])
    p.add_argument("-d", type=int, default=4)
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--pattern", default="k5")
    variant = p.add_mutually_exclusive_group()
    variant.add_argument("--subcubic", action="store_true")
    variant.add_argument("--minor", action="store_true")
    p.add_argument("-i", "--input")
    p.add_argument("-x", default="")

    p = command("fuzz", cmd_fuzz, "conjecture fuzzers")
    p.add_argument("target", choices=["tuza", "jones"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-n", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)

    p = command("bench", cmd_bench, "gap growth benchmark (CSV)", mode, out)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("-n", type=int, default=20)
    p.add_argument("-p", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)

    p = command("verify", cmd_verify, "independent certificate verification", inp, patterns)
    p.add_argument("-c", "--certificate", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (EPError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
