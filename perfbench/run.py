#!/usr/bin/env python3
"""Host-time benchmark for tpslib.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (the tpslib library from src/ plus tps_perfbench) into
.bench_build/, then runs a fixed number of passes of the named
workload's cell grid, as many as fit in --seconds at PASS_S (or
TRACED_PAIR_S) each.  The count depends on --seconds only, never on how
fast the passes run.  Each pass is a fresh tps_perfbench process, so
every pass starts with graph500's process-global CSR memo empty and the
host RSS high-water mark at zero; every cell builds a fresh engine, so
the modelled TLBs and caches start empty.  End-to-end times are the
best of the passes, per cell and phase (see README.md for why);
per-layer metrics are medians over the passes.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports the per-layer metrics (self time per span,
divided by the matching SimStats count) plus the tracing overhead.  Text
lines go first; the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  attempted and failed
count cells over all passes.  --selftest runs the identity test
(perfbench_identity) through ctest.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "tps_perfbench")
WORKLOADS = ("steady", "populate", "fragmented", "graph_sweep")
PAPER_ELIM_PCT = 98.0  # L1 DTLB misses and walk refs eliminated vs THP
# Host seconds budgeted per untraced pass, and per traced pair (an
# untraced pass, a traced one and the three observability cells).  A
# pass takes 1.1-1.9 s on a 4-vCPU KVM guest, depending on its load.
PASS_S = 2.0
TRACED_PAIR_S = 5.0
MIN_PASSES = 3         # untraced runs; traced runs take 2 pairs
PASS_TIMEOUT_S = 60
OBS_FEATURES = ("bare", "event_trace", "mem_telemetry")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no tpslib sources beside perfbench/; "
                 "run it from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_exe(workload, seed, *extra):
    cmd = [EXE, f"--workload={workload}", f"--seed={seed}", *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=PASS_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_pass(workload, seed, traced):
    if not traced:
        return run_exe(workload, seed)
    spans = os.path.join(BUILD, f"spans-{workload}.jsonl")
    return run_exe(workload, seed, "--trace", f"--spans={spans}")


def run_obs(workload, seed):
    """The overhead cell bare and with each obs feature, one process each."""
    return {f: run_exe(workload, seed, f"--obs={f}") for f in OBS_FEATURES}


def div(a, b):
    return a / b if b else 0.0


def total(cells, key):
    return sum(c[key] for c in cells)


def wall_s(p):
    """Grid host time, less the correctness checks."""
    return p["grid_s"] - total(p["cells"], "check_s")


def fastest(passes, key):
    """Per cell, the smallest of the passes' values of a time."""
    return [min(p["cells"][i][key] for p in passes)
            for i in range(len(passes[0]["cells"]))]


def rebuilt_wall_s(passes):
    """The grid's host time rebuilt from each cell's fastest pass.

    The runner has one worker, so the grid's time is its cells' times
    summed.  Checks are left out, as in wall_s.
    """
    return sum(min(p["cells"][i]["cell_s"] - p["cells"][i]["check_s"]
                   for p in passes)
               for i in range(len(passes[0]["cells"])))


def end_to_end(passes):
    """Each cell's fastest pass, per phase, summed over the grid.

    The host's slowdowns come in episodes (other tenants of the
    machine), which a median over a handful of passes does not average
    away; each cell's fastest pass does not see them.
    """
    cells = passes[0]["cells"]
    single = [i for i, c in enumerate(cells) if not c["smt"]]
    smt = [i for i, c in enumerate(cells) if c["smt"]]
    init = fastest(passes, "init_s")
    measured = fastest(passes, "measured_s")
    smt_s = fastest(passes, "smt_s")

    def accesses(key, idx):
        return sum(cells[i][key] for i in idx)

    def seconds(times, idx):
        return sum(times[i] for i in idx)

    m = {
        "wall_s": rebuilt_wall_s(passes),
        "setup_s": sum(fastest(passes, "setup_s")),
        "warmup_macc_per_s": div(accesses("warmup_acc", single),
                                 seconds(init, single)) / 1e6,
        "measured_macc_per_s": div(accesses("measured_acc", single),
                                   seconds(measured, single)) / 1e6,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    if smt:
        m["smt_macc_per_s"] = div(accesses("smt_acc", smt),
                                  seconds(smt_s, smt)) / 1e6
    return m


def elim_pct(cells, key):
    """Mean over workloads of 100 * (1 - tps / thp), single-thread cells."""
    by = {c["label"]: c[key] for c in cells if not c["smt"]}
    pcts = []
    for label, thp in by.items():
        head, sep, tail = label.partition("/thp")
        tps = by.get(head + "/tps" + tail) if sep else None
        if tps is not None and thp:
            pcts.append(100.0 * (1.0 - tps / thp))
    return statistics.mean(pcts) if pcts else 0.0


def per_layer(p):
    cells = p["cells"]
    single = [c for c in cells if not c["smt"]]
    layers = p["layers"]

    def self_s(name):
        return layers[name]["self_s"]

    def spans(name):
        return layers[name]["spans"]

    work = [c["cell_s"] - c["check_s"] for c in cells]
    busy = sum(work)
    # What the runner adds between cells: from the grid's start (or the
    # previous cell's end) to the cell's start.
    ends = [0.0] + [c["start_s"] + c["cell_s"] for c in cells[:-1]]
    gaps = [c["start_s"] - end for c, end in zip(cells, ends)]
    accesses = total(single, "warmup_acc") + total(single, "measured_acc")
    measured = total(single, "measured_acc")
    init_faults = total(single, "init_faults")
    walks = total(single, "walks")
    walk_refs = total(single, "walk_refs")
    syscall_spans = spans("os.mmap") + spans("os.munmap")
    m = {
        "core.cell_s": statistics.mean(work),
        "core.queue_wait_us": statistics.mean(gaps) * 1e6,
        "core.parallel_eff": div(busy, wall_s(p)),
        "workloads.setup_s": self_s("workloads.setup"),
        "workloads.setup_share": div(self_s("workloads.setup"), busy),
        "workloads.gen_ns_per_acc":
            div(self_s("workloads.next_batch"), accesses) * 1e9,
        "workloads.construct_s": self_s("workloads.construct"),
        "sim.engine_init_s": self_s("sim.engine_init"),
        "os.phys_init_s": self_s("os.phys_init"),
        "os.fragment_s": self_s("os.fragment"),
        "os.syscalls": total(cells, "syscalls"),
        "os.syscall_us": div(self_s("os.mmap") + self_s("os.munmap"),
                             syscall_spans) * 1e6,
        "os.fault_ns": div(self_s("sim.translate.warmup"), init_faults) * 1e9,
        "os.init_share": div(self_s("sim.translate.warmup"), busy),
        "os.faults": init_faults,
    }
    for key in ("promotions", "reservations_created", "reservations_missed",
                "buddy_allocs", "buddy_splits", "buddy_failed_allocs",
                "compaction_migrated_frames"):
        m["os." + key] = total(cells, key)
    m.update({
        "tlb.l1_misses": total(single, "l1_misses"),
        "tlb.l2_hits": total(single, "l2_hits"),
        "tlb.l1_miss_ratio": div(total(single, "l1_misses"), measured),
        "tlb.tps_l1_miss_elim_pct": elim_pct(cells, "l1_misses"),
        "vm.walks": walks,
        "vm.walk_refs": walk_refs,
        "vm.refs_per_walk": div(walk_refs, walks),
        "vm.fault_walk_refs": total(single, "fault_walk_refs"),
        "vm.tps_walk_ref_elim_pct": elim_pct(cells, "walk_refs"),
        "sim.translate_ns_per_acc":
            div(self_s("sim.translate.measured"), measured) * 1e9,
        "sim.measured_share": div(self_s("sim.translate.measured"), busy),
        "sim.memsys_accesses": total(single, "memsys_accesses"),
        "sim.dram_accesses": total(single, "dram_accesses"),
        "obs.stats_json_ms":
            statistics.mean(c["stats_json_s"] for c in cells) * 1e3,
        "check.violations": total(cells, "violations"),
        "check.invariants_ms":
            statistics.mean(c["check_s"] for c in cells) * 1e3,
    })
    return m


def obs_overheads(runs):
    """Observability cost on the overhead cell, fastest run of each kind."""
    def best(feature):
        return min(r[feature]["cell_s"] for r in runs)

    base = best("bare")
    return {
        "obs.overhead_base_s": base,
        "obs.event_trace_overhead_pct":
            100.0 * (div(best("event_trace"), base) - 1.0),
        "obs.mem_telemetry_overhead_pct":
            100.0 * (div(best("mem_telemetry"), base) - 1.0),
    }


def obs_ok(runs):
    """Every overhead run passed, and event tracing left the stats alone."""
    return all(all(r[f]["ok"] for f in OBS_FEATURES) and
               r["event_trace"]["digest"] == r["bare"]["digest"]
               for r in runs)


def stats_digest(p):
    """48-bit hash of every cell's SimStats JSON."""
    text = ",".join(f'{c["label"]}={c["digest"]}' for c in p["cells"])
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


def load_units():
    """Each gated metric's unit, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units["smt_macc_per_s"] = "Macc/s"  # printed as text only
    return units


def medians(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build()
    if args.selftest:
        return subprocess.run(["ctest", "--test-dir", BUILD,
                               "--output-on-failure"]).returncode
    if not args.workload:
        ap.error("--workload is required")
    units = load_units()

    # Untraced passes alone, or untraced pass, traced pass and overhead
    # cells in turn; a fixed count for the given --seconds.
    passes = {False: [], True: []}
    obs_runs = []
    start = time.monotonic()
    if args.trace:
        for _ in range(max(2, int(args.seconds // TRACED_PAIR_S))):
            passes[False].append(run_pass(args.workload, args.seed, False))
            passes[True].append(run_pass(args.workload, args.seed, True))
            obs_runs.append(run_obs(args.workload, args.seed))
    else:
        for _ in range(max(MIN_PASSES, int(args.seconds // PASS_S))):
            passes[False].append(run_pass(args.workload, args.seed, False))

    everything = passes[False] + passes[True]
    attempted = sum(len(p["cells"]) for p in everything)
    failed = sum(not c["ok"] for p in everything for c in p["cells"])
    digests = {tuple(c["digest"] for c in p["cells"]) for p in everything}
    correct = failed == 0 and len(digests) == 1 and obs_ok(obs_runs)
    if not obs_ok(obs_runs):
        log("an overhead cell failed, or event tracing changed its stats")
    if len(digests) != 1:
        log("stats differ between passes of one seed "
            "(traced vs untraced, or run to run)")

    e2e = end_to_end(passes[False])
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(everything)} passes in {time.monotonic() - start:.1f} s")
    print(f"  cell_fail_ratio = {div(failed, attempted)} "
          f"({failed} failed of {attempted} cells)")
    for p in everything:
        for c in p["cells"]:
            if not c["ok"]:
                print(f"  FAILED {args.workload}/{c['label']}: {c['error']}")
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  sim.stats_digest = {stats_digest(everything[0]):012x}")

    if args.trace:
        layer = medians([per_layer(p) for p in passes[True]])
        layer.update(obs_overheads(obs_runs))
        layer["trace.overhead_pct"] = 100.0 * (
            rebuilt_wall_s(passes[True]) / e2e["wall_s"] - 1.0)
        for name, value in layer.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        for key in ("tlb.tps_l1_miss_elim_pct", "vm.tps_walk_ref_elim_pct"):
            print(f"  {key}: {layer[key]:.1f}% vs the paper's "
                  f"~{PAPER_ELIM_PCT:.0f}% (unpaired: core::runSeed hashes "
                  f"the design, so THP and TPS replay different streams)")
        last = passes[True][-1]
        for c in last["cells"]:
            print(f"  core.cell_s[{c['label']}] = "
                  f"{c['cell_s'] - c['check_s']:.4f} s")
        print(f"  obs overheads priced on {obs_runs[0]['bare']['cell']}, "
              f"base {layer['obs.overhead_base_s']:.4f} s")
        metrics = layer
    else:
        metrics = {k: e2e[k] for k in e2e if k != "smt_macc_per_s"}

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
