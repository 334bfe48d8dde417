#!/usr/bin/env python3
"""How steady is the benchmark?  Runs every workload on several seeds and
reports the quartiles of each end-to-end metric.

    python3 perfbench/steady.py --seeds 10 --report perfbench/STEADY.md

Seeds are 1..N; the workloads and bounds are those of BENCHMARK.json.
Spread is (q3 - q1) / median over the seeds, with the quartiles of
statistics.quantiles(values, n=4); it should stay under a third of the
metric's bound.  For p50 and the tail it also gives, from the same runs'
instance times, the spread of the single order statistic (statistics.median,
statistics.quantiles) that run.quantile smooths.  Seed 1 is then run again, untraced and twice traced, to
check that answers_sha and every count (*.calls, *.nodes) repeat exactly and
that the traced runs pass their self-check.  Exits 1 when a run is not
correct, a traced run reports a problem, or a repeat differs.  Run from the
root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench_run

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def order_statistics(detail):
    """A run's p50 and tail as single order statistics, the estimates that
    run.quantile smooths; the report gives the spread of both."""
    times = detail["times_s"]
    cuts = statistics.quantiles(times, n=len(times))
    return {"instance_p50_ms": 1e3 * statistics.median(times),
            "instance_tail_ms": 1e3 * cuts[len(times) - bench_run.TAIL_BEYOND - 1]}


def spread(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3, (q3 - q1) / med


def counts(result):
    return {k: m["value"] for k, m in result["metrics"].items()
            if k.endswith((".calls", ".nodes"))}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--report", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = range(1, args.seeds + 1)

    out = [f"# Benchmark steadiness\n\n{len(seeds)} seeds ({seeds[0]}..{seeds[-1]}) "
           f"per workload, --seconds {seconds}, one run at a time.\n"]
    worst = 0.0
    bad = []
    for name in [w["name"] for w in bench["workloads"]]:
        values, plain, failed_frac, details = {}, {}, [], []
        for seed in seeds:
            detail, result = run(name, seed, seconds, 0)
            if not result["correct"]:
                bad.append(f"{name} seed {seed}: not correct: {detail['failures']}")
            details.append(detail)
            failed_frac.append(detail["failed_frac"])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            for metric, value in order_statistics(detail).items():
                plain.setdefault(metric, []).append(value)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                flush=True)
        again, _ = run(name, seeds[0], seconds, 0)
        traced = [run(name, seeds[0], seconds, 1) for _ in range(2)]
        for detail, result in traced:
            if not result["correct"]:
                bad.append(f"{name} seed {seeds[0]} traced: not correct: "
                           f"{detail['problems']} {detail['failures']}")
        (detail_a, traced_a), (detail_b, traced_b) = traced

        out.append(f"\n## {name}\n\nHost: {details[0]['host']}\n")
        out.append("| metric | unit | q1 | median | q3 | spread | bound "
                   "| spread < bound/3 | spread as one order statistic |")
        out.append("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
        for spec in bench["end_to_end"]:
            q1, med, q3, s = spread(values[spec["name"]])
            worst = max(worst, s / spec["bound"])
            alt = f"{spread(plain[spec['name']])[3]:.3f}" if spec["name"] in plain else ""
            out.append(
                f"| {spec['name']} | {spec['unit']} | {q1:.4g} | {med:.4g} | {q3:.4g} "
                f"| {s:.3f} | {spec['bound']} | {'yes' if s < spec['bound'] / 3 else 'NO'} "
                f"| {alt} |"
            )
        same_sha = again["answers_sha"] == details[0]["answers_sha"]
        same_counts = counts(traced_a) == counts(traced_b)
        if not (same_sha and same_counts):
            bad.append(f"{name} seed {seeds[0]}: answers_sha or counts differ")
        out.append(
            f"\n- failed_frac per seed: {failed_frac}\n"
            f"- instances per run: {[d['instances'] for d in details]}\n"
            f"- answers_sha of seed {seeds[0]} repeats: {same_sha}\n"
            f"- counts of two traced runs of seed {seeds[0]} match: {same_counts}\n"
            f"- traced runs correct: {traced_a['correct']}, {traced_b['correct']}; "
            f"problems: {detail_a['problems'] + detail_b['problems']}\n"
            f"- trace.overhead_frac: "
            f"{traced_a['metrics']['trace.overhead_frac']['value']:.3f}, "
            f"{traced_b['metrics']['trace.overhead_frac']['value']:.3f}"
        )
    out.append(f"\nWorst spread / bound: {worst:.3f}\n")
    out += [f"- FAILED: {b}" for b in bad]
    text = "\n".join(out)
    print(text)
    if args.report:
        args.report.write_text(text)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
