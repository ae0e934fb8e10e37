#!/usr/bin/env bash
# Sweep-throughput benchmark: times `paper_report --quick` and the full
# Fig. 8 sweep at jobs=1 vs jobs=N (N = available parallelism, floor 4)
# and writes BENCH_sweep.json (wall-clock, speedup, points/sec) so the
# perf trajectory is tracked PR over PR.
#
# The executor guarantees byte-identical output at any worker count, so
# the two timings exercise the same work; the speedup column is pure
# scheduling. On a single-core host the expected speedup is ~1.0 — the
# JSON records host parallelism so the number stays interpretable.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> building release artifacts"
cargo build -q --release -p agilewatts --example paper_report
cargo build -q --release -p aw-cli

python3 - "$@" <<'EOF'
import json, os, subprocess, time

cores = os.cpu_count() or 1
jobs_n = max(4, cores)

def timed(cmd, env_jobs, runs=3):
    """Median wall-clock of `cmd` with AW_JOBS=env_jobs."""
    env = dict(os.environ, AW_JOBS=str(env_jobs))
    samples = []
    for _ in range(runs):
        t0 = time.monotonic()
        subprocess.run(cmd, stdout=subprocess.DEVNULL, env=env, check=True)
        samples.append(time.monotonic() - t0)
    samples.sort()
    return samples[len(samples) // 2]

FIG8_POINTS = 7  # SweepParams::default() qps grid

benches = []
FLEET_SERVER_EPOCHS = 16 * 8  # fleet sweep grid upper bound (servers x epochs)

for name, cmd, points in [
    ("paper_report_quick", ["./target/release/examples/paper_report", "--quick"], None),
    ("fig8_sweep", ["./target/release/agilewatts", "fig", "8"], FIG8_POINTS),
    (
        "fleet_packing",
        ["./target/release/agilewatts", "fleet", "--servers", "16", "--epochs", "8",
         "--policy", "packing", "--autoscale", "--diurnal", "0.6"],
        FLEET_SERVER_EPOCHS,
    ),
]:
    t1 = timed(cmd, 1)
    tn = timed(cmd, jobs_n)
    entry = {
        "bench": name,
        "jobs_1_wall_s": round(t1, 4),
        f"jobs_{jobs_n}_wall_s": round(tn, 4),
        "speedup": round(t1 / tn, 3) if tn > 0 else None,
    }
    if points is not None:
        entry["points"] = points
        entry["points_per_sec_jobs_1"] = round(points / t1, 3)
        entry[f"points_per_sec_jobs_{jobs_n}"] = round(points / tn, 3)
    benches.append(entry)
    print(f"{name}: jobs=1 {t1:.3f}s, jobs={jobs_n} {tn:.3f}s, speedup {t1/tn:.2f}x")

# Streaming-observation overhead: the same fleet grid batch vs. through
# the watch cockpit (headless, one frame printed, so the delta is the
# snapshot building + channel hops, not terminal I/O). Budget: <2%.
fleet_grid = ["--servers", "16", "--epochs", "8", "--policy", "packing",
              "--autoscale", "--diurnal", "0.6"]
t_batch = timed(["./target/release/agilewatts", "fleet"] + fleet_grid, jobs_n)
t_watch = timed(
    ["./target/release/agilewatts", "watch", "--headless", "--frames", "1"] + fleet_grid,
    jobs_n,
)
overhead_pct = round((t_watch / t_batch - 1.0) * 100.0, 2) if t_batch > 0 else None
benches.append({
    "bench": "watch_overhead",
    "batch_wall_s": round(t_batch, 4),
    "watch_wall_s": round(t_watch, 4),
    "overhead_pct": overhead_pct,
    "budget_pct": 2.0,
})
print(f"watch_overhead: batch {t_batch:.3f}s, watch {t_watch:.3f}s, overhead {overhead_pct}%")

# Idle-observation overhead: the same sweep bare vs. with `--idle-out`
# (per-core interval capture + the aw-sleep analysis + CSV export).
# Observation is pure — the run artifacts stay byte-identical — so the
# delta is the analyzer itself. Budget: <25%. The sim hot path serves a
# request in well under a microsecond, so pricing every idle interval
# against the break-even model (~70 ns each; see aw-sleep's ignored
# analyze_microbench test) is inherently a double-digit share of sweep
# wall-clock; the budget tracks regressions against that floor.
sweep_grid = ["--workload", "memcached", "--qps", "300000", "--cores", "10",
              "--duration-ms", "200"]
t_plain = timed(["./target/release/agilewatts", "sweep"] + sweep_grid, jobs_n)
t_idle = timed(
    ["./target/release/agilewatts", "sweep", "--idle-out", "target/bench_idle.csv"] + sweep_grid,
    jobs_n,
)
overhead_pct = round((t_idle / t_plain - 1.0) * 100.0, 2) if t_plain > 0 else None
benches.append({
    "bench": "analyze_overhead",
    "plain_wall_s": round(t_plain, 4),
    "idle_out_wall_s": round(t_idle, 4),
    "overhead_pct": overhead_pct,
    "budget_pct": 25.0,
})
print(f"analyze_overhead: plain {t_plain:.3f}s, idle-out {t_idle:.3f}s, overhead {overhead_pct}%")

# Fleet-chaos overhead: the same fleet grid bare vs. with an *inert*
# fleet fault hook attached (seed pinned, every category at zero rate).
# The hook is pinned bit-invisible (tests/chaos.rs), so the delta is
# the health tracker, the per-epoch plan bookkeeping, and the always-on
# chaos counters. Budget: <5% — the plan draws are a handful of
# splitmix64 finalizers per server-epoch against a full discrete-event
# simulation, so anything above noise means a regression on the fleet
# hot path.
t_clean = timed(["./target/release/agilewatts", "fleet"] + fleet_grid, jobs_n)
t_chaos = timed(
    ["./target/release/agilewatts", "fleet", "--fleet-faults", "seed=1"] + fleet_grid,
    jobs_n,
)
overhead_pct = round((t_chaos / t_clean - 1.0) * 100.0, 2) if t_clean > 0 else None
benches.append({
    "bench": "fleet_chaos",
    "clean_wall_s": round(t_clean, 4),
    "inert_faults_wall_s": round(t_chaos, 4),
    "overhead_pct": overhead_pct,
    "budget_pct": 5.0,
})
print(f"fleet_chaos: clean {t_clean:.3f}s, inert hook {t_chaos:.3f}s, overhead {overhead_pct}%")

SINGLE_CORE = "jobs_1 and wall_s figures run one worker thread: single-core numbers"

report = {
    "host_parallelism": cores,
    "jobs_n": jobs_n,
    "single_core": SINGLE_CORE,
    "note": "speedup ~1.0 expected when host_parallelism == 1"
    if cores == 1
    else "speedup should approach min(jobs_n, points, host_parallelism)",
    "benches": benches,
}
with open("BENCH_sweep.json", "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print("wrote BENCH_sweep.json")

# ---------------------------------------------------------------------
# Single-run engine throughput (BENCH_singlerun.json): raw simulation
# events per second of wall-clock, not sweep points. Both commands print
# an "engine: <N> simulation events" line; dividing by the measured wall
# gives the metric the fast-path work (analytic idle-skip, event heap,
# flat C-state tables, allocation-free hot loop) is judged by. The event count is
# byte-deterministic — identical at any --jobs and with idle-skip on or
# off — so the denominator is the only thing that moves PR over PR.

def events_of(cmd, env_jobs):
    """Total `engine:` simulation events reported by `cmd`."""
    env = dict(os.environ, AW_JOBS=str(env_jobs))
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True).stdout
    for line in out.splitlines():
        if "simulation events" in line:
            return int(line.split()[1])
    raise SystemExit(f"no 'simulation events' line in output of {cmd}")

single = []

# The Fig. 8 default-grid anchor point: memcached on 10 cores at 300k
# QPS for 400 simulated ms, seed 42 — one server, one seed, pure engine.
fig8_point = ["./target/release/agilewatts", "sweep", "--workload", "memcached",
              "--qps", "300000", "--cores", "10", "--duration-ms", "400", "--seed", "42"]
ev = events_of(fig8_point, 1)
wall = timed(fig8_point, 1)
single.append({
    "bench": "fig8_single_run",
    "events": ev,
    "wall_s": round(wall, 4),
    "events_per_sec": round(ev / wall, 1),
})
print(f"fig8_single_run: {ev} events in {wall:.3f}s = {ev / wall / 1e6:.2f} Mev/s")

# Fleet scale: 1000 diurnal servers with the autoscaler, 24 epochs — the
# intra-run sharding path (every epoch's loaded servers fan out across
# the executor). One timing run per jobs setting; at ~15 s serial the
# median-of-3 protocol would triple the bench for little extra signal.
fleet_1k = ["./target/release/agilewatts", "fleet", "--servers", "1000", "--epochs", "24",
            "--epoch-ms", "5", "--policy", "packing", "--autoscale", "--diurnal", "0.8"]
ev = events_of(fleet_1k, 1)
wall_1 = timed(fleet_1k, 1, runs=1)
wall_n = timed(fleet_1k, jobs_n, runs=1)
single.append({
    "bench": "fleet_1k_diurnal",
    "events": ev,
    "jobs_1_wall_s": round(wall_1, 4),
    f"jobs_{jobs_n}_wall_s": round(wall_n, 4),
    "events_per_sec_jobs_1": round(ev / wall_1, 1),
    f"events_per_sec_jobs_{jobs_n}": round(ev / wall_n, 1),
})
print(f"fleet_1k_diurnal: {ev} events, jobs=1 {wall_1:.3f}s "
      f"({ev / wall_1 / 1e6:.2f} Mev/s), jobs={jobs_n} {wall_n:.3f}s "
      f"({ev / wall_n / 1e6:.2f} Mev/s)")

# Cross-vendor engine point: the same anchor run retargeted onto the
# Zen 2 model. Throughput is reported for the trajectory, and the cost
# of the HardwareModel indirection itself is measured where the
# simulation is identical — the explicit `--hw skylake-sp` spelling vs.
# the bare default. The model is resolved once per run (a registry
# lookup and a catalog clone at config build), so the dispatch budget
# is <2%: anything above that means per-event hw plumbing leaked into
# the hot loop.
zen_point = fig8_point + ["--hw", "zen2"]
ev_z = events_of(zen_point, 1)
wall_z = timed(zen_point, 1)
wall_sky_explicit = timed(fig8_point + ["--hw", "skylake-sp"], 1)
dispatch_pct = round((wall_sky_explicit / wall - 1.0) * 100.0, 2) if wall > 0 else None
single.append({
    "bench": "fig8_zen2",
    "events": ev_z,
    "wall_s": round(wall_z, 4),
    "events_per_sec": round(ev_z / wall_z, 1),
    "hw_dispatch_overhead_pct": dispatch_pct,
    "dispatch_budget_pct": 2.0,
})
print(f"fig8_zen2: {ev_z} events in {wall_z:.3f}s = {ev_z / wall_z / 1e6:.2f} Mev/s, "
      f"hw dispatch overhead {dispatch_pct}%")

with open("BENCH_singlerun.json", "w") as f:
    json.dump({"host_parallelism": cores, "jobs_n": jobs_n, "single_core": SINGLE_CORE,
               "benches": single}, f, indent=2)
    f.write("\n")
print("wrote BENCH_singlerun.json")
EOF
