#!/usr/bin/env python3
"""Same-host speed gate: this checkout against a base ref.

    python3 tools/perf_ab.py <base-ref> [--pairs N] [--seed0 S]

Checks <base-ref> out into a temporary git worktree and runs the
benchmark BENCHMARK.json declares (perfbench/run.py) there and in this
checkout, on every workload at the file's run_seconds with --trace 0.
Runs go in --pairs interleaved pairs (default 5): pair i runs seed
--seed0 + i (default 100) on both sides, and the side that runs first
alternates from pair to pair, so a slow spell on the host lands on both
sides alike.

Seed 108 of the fragmented workload fails on every tree: gcc's cells
keep stale TLB entries after munmap (ROADMAP item 1) and the run
reports correct: false.  So from the default seed0, 9 or more pairs
report FAIL for any change; run such an A/B at --seed0 200 (seeds
200-209 for 10 pairs).

For each workload and end-to-end metric it prints the base's median
and IQR, this checkout's median, the change in percent and in how many
pairs this checkout did better.  It exits 1 when a median is worse
than the base's by more than the metric's BENCHMARK.json bound *and*
by more than the base's IQR, when a run of this checkout reports
correct: false, or when its share of failed cells is higher than the
base's.  A metric whose base IQR is wider than its bound, or whose
median is worse by more than the bound but within the IQR, is
reported as unresolved (the host was too noisy to tell) unless every
run of this checkout beat every run of the base.

Each workload also gets one line saying whether the simulated
statistics moved: the sim.stats_digest perfbench prints for each run,
compared between the two sides of every pair.  The line is
informational and leaves the verdict alone, since a correctness fix
moves statistics on purpose.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def compare(metric, base, change):
    """One metric's row.  base[i] and change[i] come from pair i."""
    q1, base_med, q3 = statistics.quantiles(base, n=4, method="inclusive")
    iqr = q3 - q1
    change_med = statistics.median(change)
    sign = 1 if metric["better"] == "lower" else -1
    worse = sign * (change_med - base_med)
    bound = metric["bound"] * abs(base_med)
    beats_all = all(sign * (c - b) < 0 for c in change for b in base)
    if worse > bound and worse > iqr:
        verdict = "REGRESSION"
    elif (worse > bound or iqr > bound) and not beats_all:
        # The base's own spread hides a change of the bound's size.
        verdict = "unresolved"
    else:
        verdict = "ok"
    delta = (change_med - base_med) / base_med if base_med else 0.0
    return {
        "metric": metric["name"],
        "base": base_med,
        "iqr": iqr,
        "change": change_med,
        "delta_pct": 100.0 * delta,
        "wins": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
        "verdict": verdict,
    }


def fail_ratio(runs):
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def judge(end_to_end, base, change):
    """Verdict on one workload: (rows, problems).

    base and change are perfbench result objects, pair i at index i.
    The workload passes when problems is empty.
    """
    problems = []
    if not all(r["correct"] for r in change):
        problems.append("a run of the change reported correct: false")
    if fail_ratio(change) > fail_ratio(base):
        problems.append(f"failed/attempted rose from {fail_ratio(base):.3g}"
                        f" to {fail_ratio(change):.3g}")
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        row = compare(metric,
                      [r["metrics"][name]["value"] for r in base],
                      [r["metrics"][name]["value"] for r in change])
        rows.append(row)
        if row["verdict"] == "REGRESSION":
            problems.append(f"{name} {row['delta_pct']:+.1f}%, beyond its "
                            f"bound of {100 * metric['bound']:.0f}% and "
                            f"the base's IQR")
    return rows, problems


def stats_line(seeds, base, change):
    """Whether the two sides' sim.stats_digest agree at every seed."""
    differ = [str(seed) for seed, b, c in zip(seeds, base, change)
              if b["stats_digest"] is None or
              b["stats_digest"] != c["stats_digest"]]
    if not differ:
        return f"stats identical at all {len(seeds)} seeds"
    return f"stats differ at seeds {', '.join(differ)}"


def run_bench(spec, root, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    print(f"[{os.path.basename(root)}] {' '.join(cmd)}", file=sys.stderr,
          flush=True)
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                         check=True)
    return parse_run(out.stdout)


def parse_run(stdout):
    """perfbench's result object, plus the sim.stats_digest it printed."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["stats_digest"] = next(
        (line.split("=")[1].strip() for line in lines
         if line.strip().startswith("sim.stats_digest =")), None)
    return result


def measure(spec, base_root, pairs, seed0):
    """{workload: {"base": [...], "change": [...]}}, one run per pair."""
    sides = [("base", base_root), ("change", ROOT)]
    runs = {w["name"]: {"base": [], "change": []} for w in spec["workloads"]}
    for pair in range(pairs):
        order = sides if pair % 2 == 0 else sides[::-1]
        for workload in runs:
            for side, root in order:
                runs[workload][side].append(
                    run_bench(spec, root, workload, seed0 + pair))
    return runs


def pair_count(text):
    value = int(text)
    if value < 2:
        # A median and an IQR need two runs per side.
        raise argparse.ArgumentTypeError(f"must be at least 2: {text}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="tools/perf_ab.py",
        description="Same-host speed gate: this checkout against a base "
                    "ref.")
    parser.add_argument("base_ref", help="git ref of the base side")
    parser.add_argument("--pairs", type=pair_count, default=5,
                        help="interleaved pairs per workload (default 5)")
    parser.add_argument("--seed0", type=int, default=100,
                        help="seed of the first pair; pair i runs "
                             "seed0 + i (default 100)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    base_ref, pairs, seed0 = args.base_ref, args.pairs, args.seed0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        base_root = os.path.join(tmp, "base")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        base_root, base_ref], stdout=sys.stderr, check=True)
        try:
            runs = measure(spec, base_root, pairs, seed0)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", base_root], stdout=sys.stderr)

    print(f"{pairs} interleaved pairs per workload, seeds {seed0}-"
          f"{seed0 + pairs - 1}, {spec['run_seconds']} s runs; "
          f"base = {base_ref}")
    print(f"{'workload':<12} {'metric':<20} {'base median':>12} "
          f"{'base IQR':>10} {'change':>12} {'delta':>8} {'wins':>5}  "
          "verdict")
    failed = False
    for workload, sides in runs.items():
        rows, problems = judge(spec["end_to_end"], sides["base"],
                               sides["change"])
        for r in rows:
            print(f"{workload:<12} {r['metric']:<20} {r['base']:>12.5g} "
                  f"{r['iqr']:>10.3g} {r['change']:>12.5g} "
                  f"{r['delta_pct']:>+7.1f}% {r['wins']:>3}/{pairs}  "
                  f"{r['verdict']}")
        seeds = range(seed0, seed0 + pairs)
        print(f"{workload:<12} "
              f"{stats_line(seeds, sides['base'], sides['change'])}")
        for p in problems:
            print(f"FAIL {workload}: {p}")
        failed |= bool(problems)
    print("perf A/B: " + ("FAIL" if failed else "pass"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
