#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from the checkout, runs one
workload and prints every metric, then one JSON result line.

    python3 perfbench/run.py --workload flood_8b --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seconds 10     # every workload, both runs

--trace 0 prints the end-to-end metrics (the amt rung, untraced); --trace 1
prints the per-layer metrics (the fabric -> minilci -> parcelport_lci -> amt
ladder, spans on). The last stdout line is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build and run artefacts stay in the checkout: .bench_build/ (or
$CARGO_TARGET_DIR) and .bench_out/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

# name: (processes, backend, workers per locality, progress thread)
WORKLOADS = {
    "flood_8b": (1, "sim", 1, True),
    "flood_16k": (1, "sim", 1, True),
    "pingpong_8b": (1, "sim", 2, False),
    "flood_8b_shm2": (2, "shm", 1, True),
    # Reproducer of the shm MR-window abort (an unwindowed 16 KiB flood);
    # not part of BENCHMARK.json.
    "flood_16k_shm2": (2, "shm", 1, True),
}

END_TO_END = {
    "msg_rate_kps": "kparcels/s",
    "rtt_p50_us": "us",
    "rtt_p99_us": "us",
    "cpu_us_per_op": "us",
    "setup_s": "s",
}

RUNGS = ("fabric", "minilci", "parcelport_lci", "amt")
RUNG_METRICS = {
    "ns_per_op": "ns",
    "self_ns_per_op": "ns",
    "post_ns_p50": "ns",
    "post_ns_p99": "ns",
    "poll_ns_p50": "ns",
    "poll_useful_frac": "ratio",
    "retry_frac": "ratio",
    "cpu_us_per_op": "us",
}
# Registry counters (summed over every rank's amt-rung registry) per op.
COUNTER_METRICS = {
    "fabric.packets_per_op": ("fabric/packets_sent", "count/op"),
    "fabric.bytes_per_op": ("fabric/bytes_sent", "B/op"),
    "fabric.tx_window_rejects_per_op": ("fabric/tx_window_rejects", "count/op"),
    "fabric.rnr_stalls_per_op": ("fabric/rnr_stalls", "count/op"),
    "minilci.progress_calls_per_op": ("minilci/progress_calls", "count/op"),
    "minilci.pool_exhausted_per_op": ("minilci/pool_exhausted", "count/op"),
    "minilci.pool_cache_hits_frac": ("minilci/pool_cache_hits", "ratio"),
    "parcelport_lci.fastpath_hits_frac": ("pplci/fastpath_hits", "ratio"),
    "parcelport_lci.send_retries_per_op": ("pplci/send_retries", "count/op"),
    "parcelport_lci.progress_skips_per_op": ("pplci/progress_skips", "count/op"),
    "parcelport_lci.conn_allocs_per_op": ("pplci/conn_allocs", "count/op"),
    "amt.tasks_executed_per_op": ("sched/tasks_executed", "count/op"),
}
PER_LAYER = {f"{r}.{m}": u for r in RUNGS for m, u in RUNG_METRICS.items()}
PER_LAYER.update({name: unit for name, (_, unit) in COUNTER_METRICS.items()})
PER_LAYER.update({
    "minilci.match_misses_frac": "ratio",
    "amt.tasks_stolen_frac": "ratio",
    "amt.one_way_us_p50": "us",
    "amt.one_way_us_p99": "us",
    "stack.teardown_s": "s",
    "trace.overhead_frac": "ratio",
})
# Per-parcel ratios divide by parcels, not by ops (they read as fractions).
PER_PARCEL = {"minilci.pool_cache_hits_frac", "parcelport_lci.fastpath_hits_frac"}
NOT_OBSERVABLE = -1.0  # progress inside the runtime: no benchmark-made call


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def host_steal_s():
    """CPU time the hypervisor gave to other guests (all CPUs), in seconds;
    0 where /proc/stat has no steal column."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def host_info():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model}


def build():
    """Configures (once) and builds perfbench + amtnet_launch; returns the
    build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no amtnet sources next to perfbench/ -- run from a "
            "full checkout of the repository")
        sys.exit(2)
    target_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_root.is_absolute():
        target_root = ROOT / target_root
    build_dir = target_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                    "perfbench", "amtnet_launch"], check=True, stdout=sys.stderr)
    return build_dir


def run_ranks(build_dir, args, out_dir):
    """Runs one perfbench (or two under amtnet_launch); returns the exit
    status. Every process started here has ended when this returns."""
    processes = WORKLOADS[args.workload][0]
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    # The shm segments of a two-rank run are named after this session.
    session = f"perfbench-{os.getpid()}"
    if processes == 2:
        cmd = [str(build_dir / "amtnet_tools" / "amtnet_launch"), "-n", "2",
               "--session", session, "--"] + cmd
    # The stack reads AMTNET_* knobs from the environment; the benchmark
    # pins every setting itself (the launcher adds the shm rank variables).
    env = {k: v for k, v in os.environ.items() if not k.startswith("AMTNET_")}
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        status = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s; killing it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        status = 124
    # A rank that aborts cannot unlink its segments; remove what is left.
    for leftover in Path("/dev/shm").glob(session + "-*"):
        leftover.unlink(missing_ok=True)
    return status


def merge_ranks(out_dir, processes):
    merged = {"attempted": 0, "failed": 0, "errors": [], "metrics": {},
              "counters": {}, "series": {}}
    for rank in range(processes):
        path = out_dir / f"rank{rank}.json"
        if not path.is_file():
            merged["errors"].append(f"rank {rank} wrote no result")
            merged["failed"] += 1
            continue
        data = json.loads(path.read_text())
        merged["attempted"] += data["attempted"]
        merged["failed"] += data["failed"]
        merged["errors"] += [f"rank {rank}: {e}" for e in data["errors"]]
        merged["failed"] += 0 if rank == 0 else len(data["errors"])
        merged["metrics"].update(data["metrics"])
        merged["series"].update(data["series"])
        for name, value in data["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
    return merged


def counter_metrics(counters, pingpong):
    """Per-op figures from the amt rung's registry counters."""
    parcels = counters.get("amt/parcels_sent", 0.0)
    ops = parcels / 2 if pingpong else parcels
    out = {}
    for name, (counter, _unit) in COUNTER_METRICS.items():
        base = parcels if name in PER_PARCEL else ops
        out[name] = counters.get(counter, 0.0) / base if base else 0.0
    hits = counters.get("minilci/match_hits", 0.0)
    misses = counters.get("minilci/match_misses", 0.0)
    out["minilci.match_misses_frac"] = misses / (hits + misses) if hits + misses else 0.0
    executed = counters.get("sched/tasks_executed", 0.0)
    out["amt.tasks_stolen_frac"] = (
        counters.get("sched/tasks_stolen", 0.0) / executed if executed else 0.0)
    # The runtime's own progress calls: the registry histogram's percentiles
    # are bucketed, so the mean stands in (see README.md).
    calls = counters.get("minilci/dev1/progress_ns_count", 0.0)
    out["amt.poll_ns_p50"] = (
        counters.get("minilci/dev1/progress_ns_sum", 0.0) / calls if calls else 0.0)
    out["amt.poll_useful_frac"] = NOT_OBSERVABLE
    out["amt.retry_frac"] = (
        counters.get("pplci/send_retries", 0.0) / parcels if parcels else 0.0)
    return out


def merge_traces(out_dir, processes):
    """One Chrome trace for the run: the ranks share CLOCK_MONOTONIC, so
    their events merge without a clock offset (pid = rank)."""
    events = []
    for rank in range(processes):
        path = out_dir / f"trace_rank{rank}.json"
        if path.is_file():
            events += json.loads(path.read_text())["traceEvents"]
            path.unlink()
    (out_dir / "trace.json").write_text(
        json.dumps({"displayTimeUnit": "ns", "traceEvents": events}))


def run_one(build_dir, args):
    """Runs one workload; prints the metrics and returns the result line."""
    processes, backend, workers, progress = WORKLOADS[args.workload]
    host = host_info()
    threads = 2 * (workers + (1 if progress else 0))
    print(f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} "
          f"backend={backend} ranks={processes} localities=2 "
          f"threads/locality={workers} worker{'s' if workers > 1 else ''}"
          f"{' + 1 progress' if progress else ''} total_threads={threads}")
    # One directory per workload and mode, overwritten by the next run.
    out_dir = ROOT / ".bench_out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    steal0 = host_steal_s()
    status = run_ranks(build_dir, args, out_dir)
    # Other guests' load on the host shows here, not in the program.
    host["steal_s"] = round(host_steal_s() - steal0, 2)
    print(f"host: cpu time stolen by other guests during the run: "
          f"{host['steal_s']} s")
    if status != 0 and not (out_dir / "rank0.json").is_file():
        log(f"perfbench: {args.workload} failed with status {status}")
        return None
    (out_dir / "control.bin").unlink(missing_ok=True)  # the ranks' IPC block
    merged = merge_ranks(out_dir, processes)
    counters = merged["counters"]
    correct = status == 0 and not merged["errors"] and merged["failed"] == 0
    # Conservation over the amt rung's registries: every fabric packet sent
    # was received.
    if counters.get("fabric/packets_sent") != counters.get("fabric/packets_received"):
        merged["errors"].append("fabric packets sent != packets received")
        correct = False
    wanted = END_TO_END
    if args.trace:
        wanted = PER_LAYER
        merged["metrics"].update(
            counter_metrics(counters, args.workload.startswith("pingpong")))
        merge_traces(out_dir, processes)
    metrics = {}
    for name, unit in wanted.items():
        if name not in merged["metrics"]:
            merged["errors"].append(f"metric {name} missing")
            correct = False
            continue
        metrics[name] = {"value": merged["metrics"][name], "unit": unit}
        print(f"{name:40s} {merged['metrics'][name]:14.4f} {unit}")
    if not args.trace:
        print(f"{'rtt_samples':40s} {merged['metrics'].get('rtt_samples', 0):14.0f} count")
    print(f"ops_attempted={merged['attempted']} ops_failed={merged['failed']}")
    for error in merged["errors"]:
        print(f"error: {error}")
    result = {"correct": correct, "attempted": max(1, merged["attempted"]),
              "failed": merged["failed"] + (0 if correct or merged["failed"] else 1),
              "metrics": metrics}
    (out_dir / "result.json").write_text(json.dumps(
        {"host": host, "workload": args.workload, "seed": args.seed,
         "trace": args.trace, "errors": merged["errors"],
         "counters": counters, "series": merged["series"], **result},
        indent=1))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every benchmark workload, untraced and traced")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    build_dir = build()
    if not args.all:
        result = run_one(build_dir, args)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    ok = True
    for workload in ("flood_8b", "flood_16k", "pingpong_8b", "flood_8b_shm2"):
        for trace in (0, 1):
            args.workload, args.trace = workload, trace
            print(f"== {workload} trace={trace} seed={args.seed}")
            result = run_one(build_dir, args)
            ok = ok and result is not None and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
