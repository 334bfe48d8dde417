#!/usr/bin/env python3
"""eppack benchmark: one workload, closed loop, one instance at a time.

    python3 perfbench/run.py --workload oracle-desk --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; eppack is imported from that checkout's
src/.  The seed orders the inputs (workloads.make_set); eppack sees only
the generated instances.

--trace 0 measures the end-to-end metrics: it runs the workload's set of
instances once, then further passes over it until --seconds have passed,
and takes each instance's median time.  --trace 1 runs the set once
untraced and once traced, and reports the per-layer metrics; its spans are
written to perfbench/out/.  The last line of stdout is the JSON result;
the line before it carries answers_sha, failed_frac and the host.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
TAIL_BEYOND = 10  # the tail percentile has this many instances of the set above it
# set-up runs at least SETUPS times and until SETUP_S seconds have passed;
# setup_s is the median
SETUPS, SETUP_S = 2, 2.0


def set_up(name, seed):
    """Import eppack and the workloads afresh and make the run's set of instances."""
    for mod in [m for m in sys.modules if m.split(".")[0] in ("eppack", "workloads")]:
        del sys.modules[mod]
    workloads = importlib.import_module("workloads")
    eppack = sys.modules["eppack"]
    if Path(eppack.__file__).resolve().parent != (SRC / "eppack").resolve():
        sys.exit(f"run.py: imported eppack from {eppack.__file__}, not from {SRC}")
    if name not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {name!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[name]
    return workloads, w, workloads.make_set(w, seed)


class Solved:
    """The outcome of a closed-loop run over a set of instances."""

    def __init__(self, size):
        self.times = [[] for _ in range(size)]  # seconds, per instance per pass
        self.answers = []  # of the first pass
        self.attempted = 0
        self.failures = []  # (instance, [failed checks])
        self.sha = hashlib.sha256()  # of the answers of the first pass


def solve(items, workload, check_cls, seconds=None, tracer=None):
    """Run every instance once, then further passes over them until
    ``seconds`` have passed (``seconds=None``: one pass).  A later pass must
    give the first pass's answers."""
    out = Solved(len(items))
    root = tracer.layer_id("instance") if tracer else None
    start = perf_counter()
    while out.attempted < len(items) or (
        seconds is not None and perf_counter() - start < seconds
    ):
        index = out.attempted % len(items)
        inst = items[index]
        check = check_cls()
        if tracer:
            tracer.instance = index
            span = tracer.begin(root)
        t0 = perf_counter()
        try:
            answer = workload.run(inst, check)
        except Exception as exc:  # counted as a failed instance; the run goes on
            answer = ("raised", type(exc).__name__)
            check.failures.append(f"raised {type(exc).__name__}: {exc}")
            if len(out.failures) < 3:
                traceback.print_exc()
        dt = perf_counter() - t0
        if tracer:
            tracer.end(root, span)
        if out.attempted < len(items):
            out.answers.append(answer)
            out.sha.update(repr(answer).encode() + b"\n")
        else:
            check(answer == out.answers[index], "answer-differs-between-passes")
        out.times[index].append(dt)
        if check.failures:
            out.failures.append((index, check.failures))
        out.attempted += 1
    return out


def quantile(xs, q, steps=16):
    """Harrell-Davis estimate of quantile q of the sample xs: the mean of
    all order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density
    over their slice of [0, 1] (midpoint rule).  A run of cycles-sparse has
    32 instances of four sizes whose times jump between sizes, so its single
    middle order statistic varies from run to run much more than this
    weighted mean does (STEADY.md compares the two on the same runs)."""
    xs = sorted(xs)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        mids = ((i * steps + j + 0.5) / (n * steps) for j in range(steps))
        weights.append(sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in mids
        ))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def host_info():
    return {
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpus": os.cpu_count(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "eppack" / "__init__.py").is_file():
        sys.exit(f"run.py: no eppack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    setup_times = []
    while len(setup_times) < SETUPS or sum(setup_times) < SETUP_S:
        t0 = perf_counter()
        workloads, w, items = set_up(args.workload, args.seed)
        setup_times.append(perf_counter() - t0)
        # the copies of the modules and of the set that this set-up replaced
        # are garbage: collect them outside the timings, so that neither a
        # timed instance nor the peak RSS depends on how many set-ups ran
        gc.collect()
    import tracer as tracing

    detail = {
        "workload": w.name,
        "seed": args.seed,
        "host": host_info(),
    }
    problems = []
    if args.trace:
        plain = solve(items, w, workloads.Check)
        tracer = tracing.Tracer()
        missing = tracer.install()
        try:
            run = solve(items, w, workloads.Check, tracer=tracer)
        finally:
            tracer.uninstall()
        overhead = sum(map(sum, run.times)) / sum(map(sum, plain.times)) - 1
        metrics = tracer.metrics(overhead)
        problems += [f"layer not found: {m}" for m in missing]
        problems += [f"layer never called: {m}" for m in tracer.self_check(w.name)]
        if run.sha.digest() != plain.sha.digest():
            problems.append("answers differ between the untraced and the traced pass")
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"trace-{w.name}-seed{args.seed}"
        tracer.write(stem)
        detail["spans"] = {"file": f"{stem.relative_to(ROOT)}.bin",
                           "recorded": len(tracer.span_start),
                           "dropped": tracer.dropped}
    else:
        run = solve(items, w, workloads.Check, seconds=args.seconds)
        # every instance of the set weighs once, at its median over the passes
        times = [statistics.median(ts) for ts in run.times]
        tail_q = 1 - TAIL_BEYOND / len(times)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "instances_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "instance_p50_ms": {"value": 1e3 * quantile(times, 0.5), "unit": "ms"},
            "instance_tail_ms": {"value": 1e3 * quantile(times, tail_q), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        detail.update(
            setup_runs_s=setup_times,
            tail_percentile=100 * tail_q,
            times_s=times,
            passes=run.attempted / len(items),
        )

    attempted = run.attempted
    failed = len(run.failures)
    detail.update(
        instances=attempted,
        answers_sha=run.sha.hexdigest(),
        failed_frac=failed / attempted,
        failures=run.failures[:5],
        problems=problems,
    )
    for name, m in metrics.items():
        print(f"{w.name} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
