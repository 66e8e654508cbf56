#!/usr/bin/env python3
"""Host-cost benchmark of the TrEnv simulator.

Builds the driver from source (into $CARGO_TARGET_DIR, default .bench_build,
under the repository root), runs one workload for a fixed host-time budget,
checks the simulated outcome and prints one JSON result as the last line:

  python3 hostbench/run.py --workload rack_stream --seed 42 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Two more commands work on whole reports:

  python3 hostbench/run.py report [--seed N] [--seconds S] [--out FILE]
      runs every workload with tracing (end-to-end metrics come from its
      untraced episodes) and prints every metric by name with its unit;
      --out saves the records (stamped with nproc, CPU, compiler and build
      type) as JSON.
  python3 hostbench/run.py compare BASE.json NEW.json
      prints each metric's change; refuses records from different hosts or
      from a build that is not optimised.

See hostbench/README.md for the workloads and what each metric should move.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rack_stream", "dense_node", "pool_churn")
OPTIMISED = ("Release", "RelWithDebInfo")
DRIVER_TIMEOUT_S = 170
# Episode 0 of a traced run is untraced, so tracing overhead always has a
# base; three episodes give every median a middle value.
MIN_EPISODES = 3
# After each untraced episode whose set-up is short next to its run phase,
# this many set-up probes (fresh processes that exit at the first arrival)
# give setup_s more samples, as long as they cost at most
# SETUP_PROBE_MAX_SHARE of the episode's run phase.
SETUP_PROBES_PER_EPISODE = 4
SETUP_PROBE_MAX_SHARE = 0.05

# name -> (unit, better). End-to-end metrics come from untraced episodes.
END_TO_END = {
    "sim_inv_per_s": ("1/s", "higher"),
    "slice_ms_p50": ("ms", "lower"),
    "slice_ms_p99": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

# Per-layer metrics: model counts (identical in every run of one seed) and
# host times of the traced episodes.
PER_LAYER = {
    "workload.gen_s": "s",
    "workload.arrivals": "count",
    "platform.deploy_s": "s",
    "platform.submit_s": "s",
    "platform.report_s": "s",
    "platform.warm_starts": "count",
    "platform.repurposed_starts": "count",
    "platform.cold_starts": "count",
    "platform.keepalive_peak_parked": "count",
    "platform.keepalive_hit_ratio": "ratio",
    "sim.drain_s": "s",
    "sim.advance_s": "s",
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "sim.epochs": "count",
    "sim.barrier_wait_s": "s",
    "sim.density_attach_p99_ms": "ms",
    "simkernel.faults_minor": "count",
    "simkernel.faults_major": "count",
    "simkernel.faults_cow": "count",
    "simkernel.fetch_bytes": "B",
    "simkernel.frames_peak_bytes": "B",
    "mempool.cxl_fetch_ops": "count",
    "mempool.cxl_fetch_pages": "count",
    "mempool.rdma_fetch_ops": "count",
    "mempool.rdma_fetch_pages": "count",
    "mempool.pool_bytes": "B",
    "mmtemplate.attach_calls": "count",
    "mmtemplate.attached_pages": "count",
    "density.demotions": "count",
    "density.promotions": "count",
    "density.demoted_pages": "count",
    "density.promoted_pages": "count",
    "poolmgr.attaches": "count",
    "poolmgr.lease_hit_ratio": "ratio",
    "poolmgr.remote_fetch_pages": "count",
    "poolmgr.coalesced_requests": "count",
    "poolmgr.rebalance_moves": "count",
    "poolmgr.dead_read_hops": "count",
    "poolmgr.nas_fallback_pages": "count",
    "poolctl.heartbeats": "count",
    "poolctl.rebalance_ticks": "count",
    "poolctl.rebalance_pages": "count",
    "poolctl.deaths": "count",
    "poolctl.false_suspicions": "count",
    "fault.injected": "count",
    "fault.retries": "count",
    "fault.exhausted_fetches": "count",
    "fault.retry_useful_ratio": "ratio",
    "fault.apply_s": "s",
    "common.rss_after_setup_mib": "MiB",
    "common.rss_growth_b_per_inv": "B",
    "trace.overhead_frac": "ratio",
    "trace.traced_inv_per_s": "1/s",
    "trace.spans": "count",
}


def fail(message, code=2):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "hostbench"


def build():
    """Configures and builds the driver (a no-op when it is up to date)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(out), "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed")
    return out / "hostbench_driver"


def run_driver(driver, args):
    try:
        proc = subprocess.run([str(driver)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out after {DRIVER_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}", 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no record", 1)
    return json.loads(lines[-1])


def committed_digests():
    with open(HERE / "digests.json") as f:
        return json.load(f)


def check(record, digest_seeds):
    """Returns the list of failed correctness checks (empty when correct)."""
    problems = []
    if not record.get("digests_agree", True):
        problems.append("episodes of one seed produced different digests")
    sim = record["sim"]
    if sim["accepted"] + sim["refused"] != sim["arrivals"]:
        problems.append("accepted + refused != arrivals")
    if sim["completed"] > sim["accepted"]:
        problems.append("more invocations completed than were accepted")
    if sim["failed"] != 0:
        problems.append(f"{sim['failed']:.0f} invocations failed, lost or refused")
    if record["host"]["build_type"] not in OPTIMISED:
        problems.append(f"non-optimised build {record['host']['build_type']}")
    seed = str(record["seed"])
    expected = committed_digests().get(record["workload"], {}).get(seed)
    if seed in digest_seeds and expected is None:
        problems.append(f"no committed digest for seed {seed}")
    if expected is not None and expected != record["digest"]:
        problems.append(f"digest {record['digest']} != committed {expected}")
    return problems


def result_line(record, trace, problems):
    if trace:
        metrics = {name: {"value": record["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": record["e2e"][name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    return {
        "correct": not problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def spans_path(workload, seed, index):
    out = build_dir() / "spans"
    out.mkdir(parents=True, exist_ok=True)
    return str(out / f"{workload}-{seed}-{index}.json")


def percentile(values, p):
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[min(len(ranked), max(1, math.ceil(p / 100 * len(ranked)))) - 1]


def aggregate(episodes, setup_probes=()):
    """Folds one record per episode into the run's record.

    Other tenants of a shared host only ever add time, in bursts of a
    fraction of a second to a few seconds that slow this process by up to
    60%. Slice k covers the same simulated second in every episode of a
    seed, so the fastest of its observations across the run's untraced
    episodes is the simulator's own cost of that second. The run-phase
    metrics come from that floor profile and set-up from the fastest
    untraced episode or set-up probe; per-layer host times are medians over
    the traced episodes. Counts are the same in every episode of a seed.
    """
    untraced = [e for e in episodes if e["trace"] == 0]
    traced = [e for e in episodes if e["trace"] == 1]
    first = episodes[0]

    def median(records, block, name):
        return statistics.median(r[block][name] for r in records) if records else 0.0

    floor = [min(s) for s in zip(*(e["slices_ms"] for e in untraced))]
    # The run phase past the last slice boundary: the last partial second
    # and the drain.
    tail_ms = min(e["e2e"]["run_s"] * 1e3 - sum(e["slices_ms"]) for e in untraced)
    run_s = (sum(floor) + max(0.0, tail_ms)) / 1e3
    e2e = {
        "sim_inv_per_s": first["sim"]["completed"] / run_s,
        "slice_ms_p50": percentile(floor, 50),
        "slice_ms_p99": percentile(floor, 99),
        "setup_s": min([e["e2e"]["setup_s"] for e in untraced] + list(setup_probes)),
        "peak_rss_mib": median(untraced, "e2e", "peak_rss_mib"),
        "run_s": run_s,
        "slice_count": len(floor),
    }
    layers = {name: median(traced, "layers", name) for name in first["layers"]}
    if traced:
        # Like with like: the median per-episode throughput of each kind.
        layers["trace.traced_inv_per_s"] = median(traced, "e2e", "sim_inv_per_s")
        layers["trace.overhead_frac"] = (
            1 - layers["trace.traced_inv_per_s"] / median(untraced, "e2e", "sim_inv_per_s"))
    return {
        "workload": first["workload"], "seed": first["seed"], "host": first["host"],
        "digest": first["digest"], "sim": first["sim"],
        "digests_agree": all(e["digest"] == first["digest"] for e in episodes),
        "episodes": len(episodes), "traced_episodes": len(traced),
        "setup_probes": len(setup_probes),
        "attempted": int(sum(e["sim"]["arrivals"] for e in episodes)),
        "failed": int(sum(e["sim"]["failed"] for e in episodes)),
        "e2e": e2e, "layers": layers,
    }


def measure(driver, workload, seed, seconds, trace):
    """Runs one process per episode until `seconds` have passed and at least
    MIN_EPISODES have run; with tracing, every second episode is traced."""
    episodes = []
    probes = []
    start = time.monotonic()
    while len(episodes) < MIN_EPISODES or time.monotonic() - start < seconds:
        traced = trace and len(episodes) % 2 == 1
        args = ["--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
        if traced:
            args += ["--spans-out", spans_path(workload, seed, len(episodes))]
        episode = run_driver(driver, args)
        episodes.append(episode)
        e2e = episode["e2e"]
        if (not traced and SETUP_PROBES_PER_EPISODE * e2e["setup_s"]
                <= SETUP_PROBE_MAX_SHARE * e2e["run_s"]):
            probe = ["--setup-only", "--workload", workload, "--seed", str(seed)]
            probes += [run_driver(driver, probe)["setup_s"]
                       for _ in range(SETUP_PROBES_PER_EPISODE)]
    return aggregate(episodes, probes)


def cmd_run(argv):
    p = argparse.ArgumentParser(description="Run one workload and print one result line.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--default-seed", type=int, default=42,
                   help="seed whose digest is committed (named in BENCHMARK.json)")
    p.add_argument("--heldout-seed", type=int, default=7,
                   help="held-out seed whose digest is committed")
    a = p.parse_args(argv)
    driver = build()
    record = measure(driver, a.workload, a.seed, a.seconds, a.trace == 1)
    problems = check(record, {str(a.default_seed), str(a.heldout_seed)})
    for problem in problems:
        print(f"hostbench: {a.workload} seed {a.seed}: {problem}", file=sys.stderr)
    print(json.dumps(result_line(record, a.trace == 1, problems)))
    return 1 if problems else 0


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def cmd_report(argv):
    p = argparse.ArgumentParser(description="Every metric of every workload, by name.")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--out", help="save the records to this JSON file")
    a = p.parse_args(argv)
    driver = build()
    records = []
    status = 0
    for workload in a.workloads.split(","):
        # A traced run: end-to-end metrics come from its untraced episodes.
        record = measure(driver, workload, a.seed, a.seconds, True)
        problems = check(record, set())
        status |= bool(problems)
        host = record["host"]
        print(f"== {workload}  seed {a.seed}  nproc {host['nproc']}  {host['compiler']}  "
              f"{host['build_type']}  digest {record['digest']}  "
              f"{'correct' if not problems else 'INCORRECT: ' + '; '.join(problems)}")
        for name, (unit, better) in END_TO_END.items():
            print(f"  {name:32s} {fmt(record['e2e'][name]):>14s} {unit:6s} ({better} is better)")
        print(f"  {'failed_frac':32s} {fmt(record['sim']['failed_frac']):>14s} ratio")
        for name, unit in PER_LAYER.items():
            print(f"  {name:32s} {fmt(record['layers'][name]):>14s} {unit}")
        records.append({key: record[key] for key in ("workload", "seed", "host", "digest",
                                                     "sim", "e2e", "layers")})
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"host": records[0]["host"], "records": records}, f, indent=1)
    return status


def cmd_compare(argv):
    p = argparse.ArgumentParser(description="Compare two saved reports.")
    p.add_argument("base")
    p.add_argument("new")
    a = p.parse_args(argv)
    with open(a.base) as f:
        base = json.load(f)
    with open(a.new) as f:
        new = json.load(f)
    for report, path in ((base, a.base), (new, a.new)):
        if report["host"]["build_type"] not in OPTIMISED:
            fail(f"{path} was measured on a {report['host']['build_type']!r} build; "
                 "only optimised builds are compared")
    keys = ("nproc", "cpu", "compiler")
    if any(base["host"][k] != new["host"][k] for k in keys):
        fail("records come from different hosts: "
             f"{[base['host'][k] for k in keys]} vs {[new['host'][k] for k in keys]}")
    by_workload = {r["workload"]: r for r in base["records"]}
    for rec in new["records"]:
        old = by_workload.get(rec["workload"])
        if old is None:
            continue
        same = "same" if old["digest"] == rec["digest"] else "CHANGED"
        print(f"== {rec['workload']}  simulated outcome {same}")
        for name, (unit, better) in END_TO_END.items():
            b, n = old["e2e"][name], rec["e2e"][name]
            change = (n - b) / b if b else float("nan")
            print(f"  {name:32s} {fmt(b):>14s} -> {fmt(n):>14s} {unit:6s} "
                  f"{change:+.1%} ({better} is better)")
        for name, unit in PER_LAYER.items():
            b, n = old["layers"].get(name), rec["layers"].get(name)
            if b != n:
                print(f"  {name:32s} {fmt(b):>14s} -> {fmt(n):>14s} {unit}")
    return 0


def main():
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills the running driver
    # instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    argv = sys.argv[1:]
    if argv and argv[0] == "report":
        return cmd_report(argv[1:])
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main())
