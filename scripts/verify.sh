#!/usr/bin/env bash
# One-shot verification gate: formatting, release build, full test suite
# (unit + doc), warning-free clippy and rustdoc passes, the aw-benchmark
# smoke test, and end-to-end smokes of the CLI and examples. The CLI's
# goldens run inside `cargo test` (crates/cli/tests/golden_cli.rs), so
# this script repeats none of them. CI and pre-commit both run exactly
# this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> dead workspace dependencies"
# A crate may list a workspace crate under [dependencies] only if its
# src/ mentions that crate's identifier (aw-faults -> aw_faults).
dead=0
for manifest in crates/*/Cargo.toml; do
    dir=${manifest%/Cargo.toml}
    for dep in $(sed -n '/^\[dependencies\]/,/^\[/s/^\(aw-[a-z]*\|agilewatts\)\..*/\1/p' "$manifest"); do
        if ! grep -rqw "${dep//-/_}" "$dir/src"; then
            echo "verify: $manifest lists $dep, but $dir/src never mentions ${dep//-/_}" >&2
            dead=1
        fi
    done
done
[ "$dead" -eq 0 ] || exit 1

echo "==> one workspace lint table"
# Every crate inherits [workspace.lints] from the root Cargo.toml; no
# lib.rs sets its own crate-level warn/deny.
drift=0
for manifest in crates/*/Cargo.toml; do
    if ! grep -A1 '^\[lints\]' "$manifest" | grep -q '^workspace = true'; then
        echo "verify: $manifest lacks [lints] workspace = true" >&2
        drift=1
    fi
done
if grep -n '^#!\[\(warn\|deny\)' crates/*/src/lib.rs >&2; then
    echo "verify: crate-level lint attributes belong in [workspace.lints]" >&2
    drift=1
fi
[ "$drift" -eq 0 ] || exit 1

echo "==> doc module paths exist"
# A backticked `aw-<crate>::<module>` in README.md, DESIGN.md or
# EXPERIMENTS.md must name a module file: crates/<crate>/src/<module>.rs
# or <module>/mod.rs.
stale=0
while IFS=: read -r doc line ref; do
    path=${ref#\`aw-}
    crate=${path%%::*}
    module=${path#*::}
    if [ ! -f "crates/$crate/src/$module.rs" ] && [ ! -f "crates/$crate/src/$module/mod.rs" ]; then
        echo "verify: $doc:$line cites aw-$crate::$module, but crates/$crate/src has neither $module.rs nor $module/mod.rs" >&2
        stale=1
    fi
done < <(grep -on '`aw-[a-z0-9]*::[a-z_][a-z0-9_]*' README.md DESIGN.md EXPERIMENTS.md)
[ "$stale" -eq 0 ] || exit 1

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo test --doc"
cargo test -q --workspace --doc

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
# Fails on a dangling intra-doc link, e.g. one left behind by a deleted item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> aw-benchmark smoke"
# aw-benchmark is a workspace of its own, so nothing above builds it.
# This builds it against the current crates, runs all four workloads at
# --quick scale and checks their pinned seed-42 digests.
cargo test --release --offline --manifest-path aw-benchmark/Cargo.toml

echo "==> latency_attribution example smoke"
out=$(cargo run -q --release --example latency_attribution -- --quick)
echo "$out" | grep -q "Latency attribution" || {
    echo "verify: example printed no attribution table" >&2
    exit 1
}
echo "$out" | grep -Eq "SLO p99<.*: (MET|VIOLATED)" || {
    echo "verify: example printed no SLO verdict" >&2
    exit 1
}

echo "==> chaos_faults example smoke"
out=$(cargo run -q --release --example chaos_faults)
echo "$out" | grep -q "fault plan: seed=7" || {
    echo "verify: chaos example printed no fault plan" >&2
    exit 1
}
echo "$out" | grep -q "faults injected" || {
    echo "verify: chaos example printed no degradation table" >&2
    exit 1
}
echo "$out" | grep -q "invariants: OK" || {
    echo "verify: chaos run violated invariants" >&2
    exit 1
}

echo "==> traced-output smoke (--trace-out/--metrics-out, --jobs 1 vs --jobs 2)"
for jobs in 1 2; do
    cargo run -q --release -p aw-cli -- fig 8 --quick --jobs "$jobs" \
        --trace-out "target/verify_trace_j$jobs.json" \
        --metrics-out "target/verify_metrics_j$jobs.json" >/dev/null
done
if ! cmp -s target/verify_trace_j1.json target/verify_trace_j2.json; then
    echo "verify: Chrome trace differs between --jobs 1 and --jobs 2" >&2
    exit 1
fi
if ! cmp -s target/verify_metrics_j1.json target/verify_metrics_j2.json; then
    echo "verify: metrics JSON differs between --jobs 1 and --jobs 2" >&2
    exit 1
fi

echo "==> idle-skip equivalence smoke (--no-idle-skip vs default)"
skip_on=$(cargo run -q --release -p aw-cli -- fig 8 --quick --jobs 1)
skip_off=$(cargo run -q --release -p aw-cli -- fig 8 --quick --jobs 1 --no-idle-skip)
if [ "$skip_on" != "$skip_off" ]; then
    echo "verify: fig 8 output differs with --no-idle-skip (the fast path is not pure)" >&2
    diff <(echo "$skip_on") <(echo "$skip_off") >&2 || true
    exit 1
fi

echo "==> fleet smoke (packing: 4 servers at --jobs 1 vs 8, 16 at --jobs 1 vs 2 and 3)"
fleet_serial=$(cargo run -q --release -p aw-cli -- fleet --servers 4 --policy packing --autoscale --diurnal 0.5 --jobs 1)
fleet_parallel=$(cargo run -q --release -p aw-cli -- fleet --servers 4 --policy packing --autoscale --diurnal 0.5 --jobs 8)
if [ "$fleet_serial" != "$fleet_parallel" ]; then
    echo "verify: fleet output differs between --jobs 1 and --jobs 8" >&2
    diff <(echo "$fleet_serial") <(echo "$fleet_parallel") >&2 || true
    exit 1
fi
echo "$fleet_serial" | grep -q "policy packing" || {
    echo "verify: fleet report missing its policy line" >&2
    exit 1
}
echo "$fleet_serial" | grep -q "SLO:" || {
    echo "verify: fleet report missing its SLO line" >&2
    exit 1
}
# More loaded servers per epoch than workers: results that finish ahead
# of the next server wait in the executor's reorder buffer.
fleet16_cmd=(cargo run -q --release -p aw-cli -- fleet --servers 16 --policy packing --autoscale --diurnal 0.5)
fleet16_serial=$("${fleet16_cmd[@]}" --jobs 1)
for jobs in 2 3; do
    fleet16_parallel=$("${fleet16_cmd[@]}" --jobs "$jobs")
    if [ "$fleet16_serial" != "$fleet16_parallel" ]; then
        echo "verify: 16-server fleet output differs between --jobs 1 and --jobs $jobs" >&2
        diff <(echo "$fleet16_serial") <(echo "$fleet16_parallel") >&2 || true
        exit 1
    fi
done

echo "==> fleet chaos smoke (--fleet-faults, --jobs 1 vs --jobs 8)"
chaos_cmd=(cargo run -q --release -p aw-cli -- fleet --servers 4 --epochs 8 --autoscale \
    --fleet-faults "crash-at=2:0,down-epochs=2,unpark-fail=0.2")
chaos_serial=$("${chaos_cmd[@]}" --jobs 1)
chaos_parallel=$("${chaos_cmd[@]}" --jobs 8)
if [ "$chaos_serial" != "$chaos_parallel" ]; then
    echo "verify: chaotic fleet output differs between --jobs 1 and --jobs 8" >&2
    diff <(echo "$chaos_serial") <(echo "$chaos_parallel") >&2 || true
    exit 1
fi
echo "$chaos_serial" | grep -q "chaos:" || {
    echo "verify: chaotic fleet report missing its degradation ledger" >&2
    exit 1
}
echo "$chaos_serial" | grep -q "replay: agilewatts fleet --seed" || {
    echo "verify: chaotic fleet report printed no replay hint" >&2
    exit 1
}
chaos_noskip=$("${chaos_cmd[@]}" --jobs 1 --no-idle-skip)
if [ "$chaos_serial" != "$chaos_noskip" ]; then
    echo "verify: chaotic fleet output differs with --no-idle-skip" >&2
    diff <(echo "$chaos_serial") <(echo "$chaos_noskip") >&2 || true
    exit 1
fi
# Artifact replay round-trip: the example replays its FleetFailureArtifact
# and asserts bit-identity (plus the p99 spike/recovery arc) internally.
chaos_example=$(cargo run -q --release --example fleet_chaos)
echo "$chaos_example" | grep -q "replay: OK" || {
    echo "verify: fleet_chaos example replay failed" >&2
    exit 1
}
echo "$chaos_example" | grep -q "byte-identical at --jobs 1/2/8" || {
    echo "verify: fleet_chaos example skipped its determinism ladder" >&2
    exit 1
}

echo "==> watch headless determinism smoke"
watch_cmd=(cargo run -q --release -p aw-cli -- watch --headless --frames 3 --seed 42 --servers 4 --autoscale --diurnal 0.5)
watch_a=$("${watch_cmd[@]}" --jobs 1)
watch_b=$("${watch_cmd[@]}" --jobs 1)
if [ "$watch_a" != "$watch_b" ]; then
    echo "verify: watch --headless differs between two identical runs" >&2
    diff <(echo "$watch_a") <(echo "$watch_b") >&2 || true
    exit 1
fi
watch_par=$("${watch_cmd[@]}" --jobs 8)
if [ "$watch_a" != "$watch_par" ]; then
    echo "verify: watch --headless differs between --jobs 1 and --jobs 8" >&2
    diff <(echo "$watch_a") <(echo "$watch_par") >&2 || true
    exit 1
fi
echo "$watch_a" | grep -q "=== frame 2 ===" || {
    echo "verify: watch emitted fewer frames than requested" >&2
    exit 1
}
echo "$watch_a" | grep -q "\[Power\]" || {
    echo "verify: watch frame missing its tab bar" >&2
    exit 1
}
echo "$watch_a" | grep -q "Residency heatmap" || {
    echo "verify: watch frame missing the residency heatmap" >&2
    exit 1
}

echo "==> work-limit refusal smoke"
# Runs that could never finish, or would abort in the allocator, are
# refused while parsing: a usage error (exit 1), not a timeout (124) or
# an abort (134).
for cmd in \
    "sweep --qps 1e300 --duration-ms 1" \
    "sweep --qps 18446744073709551615 --duration-ms 1" \
    "sweep --qps 1 --duration-ms 18446744073709551615" \
    "analyze --qps 1e300 --duration-ms 1" \
    "analyze --qps 4e7 --duration-ms 200000" \
    "fleet --utilization 1e300 --servers 1 --epochs 1" \
    "fleet --epochs 1000000000 --servers 1" \
    "watch --headless --epochs 4294967297 --servers 1"; do
    status=0
    # shellcheck disable=SC2086 # $cmd is split into arguments on purpose
    timeout 10 target/release/agilewatts $cmd >/dev/null 2>target/verify_refusal.txt || status=$?
    if [ "$status" -ne 1 ] || ! grep -q "^USAGE:" target/verify_refusal.txt; then
        echo "verify: 'agilewatts $cmd' exited $status, expected a usage error (1)" >&2
        exit 1
    fi
done

echo "==> fault-value refusal smoke"
# Fault values that used to panic (an event time or a stretched service
# time overflowing to infinity) or hang (event gaps below the resolution
# of the event clock) are usage errors, and fault event rates count
# toward the work limit. So is `--qps` on a workload that would ignore
# it. Each entry is "command|expected message".
for entry in \
    "sweep --duration-ms 1 --cores 2 --faults storm=1e-300|storm must be 0 or a rate in [1e-6, 1e9] per second, got 1e-300" \
    "sweep --duration-ms 1 --cores 2 --faults storm=1e300|storm must be 0 or a rate in [1e-6, 1e9] per second, got 1e300" \
    "sweep --duration-ms 1 --cores 2 --faults slow-factor=1.7e308,slowdown=1000|slow-factor must be in [1, 1e3], got 1.7e308" \
    "fleet --fleet-faults throttle-factor=5e-324,throttle=1|throttle-factor must be in [1e-3, 1], got 5e-324" \
    "sweep --duration-ms 1 --cores 2 --faults slow-ms=1e308,slowdown=1000|slow-ms must be positive milliseconds, finite in nanoseconds, got 1e308" \
    "sweep --qps 1 --duration-ms 100000000 --faults storm=1000000|refusing a run of about 1.000e12 offered requests: the limit is 1e10" \
    "analyze --qps 1 --duration-ms 100000000 --faults storm=1000000|refusing a run of about 2.000e12 offered requests: the limit is 1e10" \
    "sweep --qps 900000 --workload kafka-low --duration-ms 5|--qps only applies to the memcached workload, not 'kafka-low'"; do
    cmd=${entry%%|*}
    msg=${entry#*|}
    status=0
    # shellcheck disable=SC2086 # $cmd is split into arguments on purpose
    timeout 10 target/release/agilewatts $cmd >/dev/null 2>target/verify_refusal.txt || status=$?
    if [ "$status" -ne 1 ] || ! grep -qF -- "$msg" target/verify_refusal.txt; then
        echo "verify: 'agilewatts $cmd' exited $status, expected exit 1 with '$msg'" >&2
        exit 1
    fi
done

echo "==> analyze smoke"
# Zen 2's catalog, and every --idle-out format: each run exits 0 and
# writes a non-empty report.
timeout 60 target/release/agilewatts analyze --hw zen2 --duration-ms 20 >/dev/null || {
    echo "verify: 'agilewatts analyze --hw zen2 --duration-ms 20' failed" >&2
    exit 1
}
for suffix in json csv folded; do
    out="target/verify_idle_out.$suffix"
    rm -f "$out"
    timeout 60 target/release/agilewatts analyze --duration-ms 20 --idle-out "$out" >/dev/null || {
        echo "verify: 'agilewatts analyze --idle-out $out' failed" >&2
        exit 1
    }
    if [ ! -s "$out" ]; then
        echo "verify: 'agilewatts analyze --idle-out $out' wrote no report" >&2
        exit 1
    fi
done

echo "verify: OK"
