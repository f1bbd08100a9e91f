#!/usr/bin/env bash
# Repository-wide quality gate: formatting, lints (warnings promoted to
# errors), the full test suite, the CLI smokes and the model-behaviour
# gate. Run before pushing.
#
#   scripts/check.sh            # everything
#   scripts/check.sh fmt        # one stage: fmt | clippy | size | lifecycle | test | benchapi | cold | hit | trace | prefetch | policy | report | cluster | chaos | serve | model
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"

run_fmt() {
    echo "==> cargo fmt --all --check"
    cargo fmt --all --check
}

# The TransferEngine refactor's structural gate: the middleware must stay
# a thin read-path facade. If it creeps back toward the pre-refactor
# monolith, move the new code into `transfer.rs` (copy/staging machinery)
# or `builder.rs` (assembly) instead of raising the limit.
#
# The line budget: the non-test lines of `monarch-core` (the lifecycle
# gate's rule below: what precedes a file's column-0 `#[cfg(test)]`, with
# `*_tests.rs` left out) may only go down. A change that lowers the count
# lowers the ceiling to it; one that raises it says why beside the number.
run_size() {
    local limit=900
    local file="crates/monarch-core/src/middleware.rs"
    local lines
    lines=$(wc -l < "$file")
    echo "==> middleware facade size: $lines lines (limit $limit)"
    if [ "$lines" -gt "$limit" ]; then
        echo "size gate: $file has $lines lines > $limit" >&2
        exit 1
    fi
    # 14652 before the copy's claims were cut to the reader's stride, which
    # took 22 lines of staging.rs and transfer.rs.
    local core_limit=14674
    local core_lines
    core_lines=$(find crates/monarch-core/src -name '*.rs' ! -name '*_tests.rs' -print0 |
        sort -z |
        xargs -0 awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }')
    echo "==> monarch-core non-test lines: $core_lines (limit $core_limit)"
    if [ "$core_lines" -gt "$core_limit" ]; then
        echo "size gate: crates/monarch-core/src has $core_lines non-test lines > $core_limit" >&2
        exit 1
    fi
}

# A copy's lifecycle is booked in one place (DESIGN §3.3): what each of
# its transitions does to the namespace, the counters and the journal is
# written once, in `lifecycle.rs`, and called from the engine and from the
# simulator. Outside it (and `metadata.rs`, which defines the namespace
# moves) no non-test code of either may make those moves, bump those
# counters or build those events by hand — a sixth site cannot come back.
# `telemetry.rs` defines `EventKind` and projects it (tag, file, JSON
# fields): it matches on the variants, so only the calls are looked for
# there. Non-test code is what precedes a file's column-0 `#[cfg(test)]`.
run_lifecycle() {
    echo "==> lifecycle gate: one booking site per copy transition"
    local calls='begin_copy\(|finish_copy\(|abort_copy\(|evict_with\(|\.record_evict\(|\.copy_scheduled\(\)|\.copy_completed\(\)|\.placement_skip\(\)|\.copy_requeue\(\)'
    local events='(^|[^A-Za-z_])EventKind::(CopyScheduled|PrefetchScheduled|CopyCompleted|PlacementSkipped|CopyRequeued|Evicted)\b'
    local bad=0 f pat
    while IFS= read -r f; do
        case "$f" in
            */lifecycle.rs | */metadata.rs | *_tests.rs) continue ;;
            */telemetry.rs) pat="$calls" ;;
            *) pat="$calls|$events" ;;
        esac
        if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E "$pat"; then
            bad=1
        fi
    done < <(find crates/monarch-core/src crates/dlpipe/src/sim -name '*.rs' | sort)
    if [ "$bad" -ne 0 ]; then
        echo "lifecycle gate: book the transition through monarch_core::lifecycle instead" >&2
        exit 1
    fi
}

run_clippy() {
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
}

run_test() {
    echo "==> cargo test --workspace -q"
    cargo test --workspace -q
}

# The benchmark under benchmark/ is a workspace of its own, so nothing
# above compiles it — yet it pins monarch-core's public surface: it
# implements `StorageDriver` (new trait methods need default bodies) and
# calls `PosixDriver::{new, root}`, `MetadataContainer::{default, register,
# lookup_for_read}`, `PolicyEngine::{from_kind, on_placed, on_access}`,
# `HealthRegistry::{new, retry_policy, tier, record_success}`,
# `Stats::{new, record_read}`, `TelemetryRegistry::{new, stall_profile,
# copy_duration, queue_wait, pool_exec}`, `StallProfile::record`,
# `AccessProfiler::{new, record_read}` (by name, with `ReadTiming`), `ThreadPool::{new, submit, wait_idle}`,
# `StorageHierarchy::new`, `MonarchBuilder::{hierarchy, policy,
# pool_threads, telemetry, build}`, `Monarch::{stats, telemetry}` and the
# `StatsSnapshot` fields `tiers`, `evictions`, `read_retries`,
# `degraded_reads`, `copies_{scheduled,completed,failed}` and
# `placement_skipped`. Build it, then run its smoke self-test
# (manifest agreement, every metric printed once, a flipped byte caught).
run_benchapi() {
    echo "==> cargo build --release --offline --manifest-path benchmark/Cargo.toml"
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    echo "==> cargo test --release --offline --manifest-path benchmark/Cargo.toml -q"
    cargo test --release --offline --manifest-path benchmark/Cargo.toml -q
}

# The first epoch crosses the PFS once: a smoke-sized `cold_epoch` of the
# benchmark must read no more from the PFS than the files it touched (a
# copy that re-reads what the foreground already fetched shows as 1.37, one
# chunk of one file fetched twice as 1.03), with every read served and every
# byte right. The staging has held 1.000 since it exists; the bound leaves
# room for rounding only, because a read that announces its copy before it
# fetches has a new way to break it: taking the plain path for bytes the
# copy then fetches again. Prints `overhead_ratio` beside it (not gated:
# two smoke-sized pairs say little about time). Reads the benchmark's
# result line only.
run_cold() {
    echo "==> benchmark cold_epoch smoke: pfs_amplification <= 1.001"
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload cold_epoch --seed 7 --seconds 1 --smoke --trace 0 \
        | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
amp = r["metrics"]["pfs_amplification"]["value"]
ratio = r["metrics"]["overhead_ratio"]["value"]
assert r["correct"] is True, "cold smoke: wrong bytes"
assert r["failed"] == 0, "cold smoke: %d reads failed" % r["failed"]
assert amp <= 1.001, "cold smoke: pfs_amplification %.3f > 1.001" % amp
print("cold_epoch smoke: pfs_amplification %.3f, overhead_ratio %.3f" % (amp, ratio))
'
}

# A warm hit makes no system call and pays for counts, not for clocks or
# shared locks: three seconds of `warm_rand_4k` must stay within 1.25 times
# a bare `pread` of the same bytes (with five clock reads and five
# histogram records on every hit it ran at 2.2-2.5; timing one hit in
# sixteen, at 1.66-1.79; with the descriptor table behind a reader-striped
# gate and one counters line per file, at 1.51-1.63; copying small reads
# out of a mapping instead of calling `pread`, at 0.9-1.0), with every read
# served and every byte right.
# `tests/observation.rs` is the deterministic guard on which reads carry the
# clock, and the layout assertions in `metadata.rs` and the gate's tests on
# what a hit shares; this keeps the cost from coming back some other way.
# Reads the benchmark's result line only.
run_hit() {
    echo "==> benchmark warm_rand_4k: overhead_ratio <= 1.25"
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload warm_rand_4k --seed 7 --seconds 3 --trace 0 \
        | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
ratio = r["metrics"]["overhead_ratio"]["value"]
assert r["correct"] is True, "hit: wrong bytes"
assert r["failed"] == 0, "hit: %d reads failed" % r["failed"]
assert ratio <= 1.25, "hit: overhead_ratio %.3f > 1.25" % ratio
print("warm_rand_4k: overhead_ratio %.3f" % ratio)
'
}

# What every CLI smoke below starts from: sets the caller's `tmp` to a
# fresh directory (removed on exit) holding a generated dataset under
# `$tmp/pfs` and a two-tier config over it at `$tmp/cfg.json`.
fixture() {
    tmp="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand $tmp now, not at exit
    trap "rm -rf '$tmp'" EXIT
    cargo run -q -p monarch-cli -- gen-dataset \
        --dir "$tmp/pfs" --bytes $((8 << 20)) --samples 256 --seed 7
    cat > "$tmp/cfg.json" <<EOF
{
  "tiers": [
    {"name": "ssd", "backend": {"posix": {"path": "$tmp/ssd"}}, "capacity": 1073741824},
    {"name": "pfs", "backend": {"posix": {"path": "$tmp/pfs"}}}
  ],
  "pool_threads": 4
}
EOF
}

# Tracing end to end: the focused test targets, then a CLI smoke run that
# generates a dataset, records one traced window, and checks the export
# is valid JSON with flow-linked copy spans.
run_trace() {
    echo "==> cargo test -p monarch-core --test trace -q"
    cargo test -p monarch-core --test trace -q
    echo "==> cargo test -p monarch --test trace_e2e -q"
    cargo test -p monarch --test trace_e2e -q

    echo "==> monarch trace smoke run"
    local tmp
    fixture
    cargo run -q -p monarch-cli -- trace \
        --config "$tmp/cfg.json" --data "$tmp/pfs" --out "$tmp/trace.json" \
        --duration 1
    python3 -m json.tool "$tmp/trace.json" > /dev/null
    for needle in '"driver_pread"' '"copy_exec"' '"ph":"s"' '"ph":"f"'; do
        grep -q "$needle" "$tmp/trace.json" \
            || { echo "trace smoke: missing $needle" >&2; exit 1; }
    done
    rm -rf "$tmp"
    trap - EXIT
}

# Clairvoyant prefetch end to end: the focused test targets (window
# invariants + cross-driver acceptance), then a CLI smoke run where a
# full-plan `run --prefetch` epoch must report staged copies serving
# reads.
run_prefetch() {
    echo "==> cargo test -p monarch-core --test proptests -q"
    cargo test -p monarch-core --test proptests -q
    echo "==> cargo test -p monarch --test prefetch_e2e -q"
    cargo test -p monarch --test prefetch_e2e -q

    echo "==> monarch run --prefetch smoke"
    local tmp
    fixture
    cargo run -q -p monarch-cli -- run \
        --config "$tmp/cfg.json" --data "$tmp/pfs" --epochs 2 --prefetch 64 \
        | tee "$tmp/run.out"
    # Epoch 1 must stage copies; some epoch must record plan hits (on a
    # tiny local-FS dataset readers can outrun epoch-1 staging — the
    # promoted copies then serve epoch 2's planned reads).
    grep -Eq 'prefetch: [1-9][0-9]* staged' "$tmp/run.out" \
        || { echo "prefetch smoke: nothing staged" >&2; exit 1; }
    grep -Eq ' [1-9][0-9]* hits,' "$tmp/run.out" \
        || { echo "prefetch smoke: no planned read was served locally" >&2; exit 1; }
    rm -rf "$tmp"
    trap - EXIT
}

# Policy framework end to end: the composed-engine unit targets, the
# eviction-invariant proptests, the sim ablations (LRU eviction must beat
# the paper's no-eviction first-fit on the congested-PFS partial cache,
# clairvoyant must at least match LRU, reuse tracking must win the
# hot-set contention scenario), and a `monarch policy` CLI smoke.
run_policy() {
    echo "==> cargo test -p monarch-core --lib policy targets"
    cargo test -p monarch-core --lib -q policy
    echo "==> cargo test -p monarch-core --test proptests eviction invariants"
    cargo test -p monarch-core --test proptests -q -- \
        eviction_never_selects lru_victim lfu_victim
    echo "==> cargo test -p dlpipe sim policy ablations"
    cargo test -p dlpipe --lib -q -- eviction_policies_beat_first_fit \
        hot_set_contention policy_runs_are_deterministic
    echo "==> monarch policy smoke"
    local tmp
    fixture
    cargo run -q -p monarch-cli -- policy \
        --config "$tmp/cfg.json" --policy learned --json > "$tmp/policy.json"
    python3 - "$tmp/policy.json" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
assert p["name"] == "admit_all/scored/learned", p
assert p["eviction"] == "scored" and p["scorer"] == "learned", p
assert p["may_evict"] is True, p
PY
    rm -rf "$tmp"
    trap - EXIT
}

# Workload observatory end to end: the focused test target, then a CLI
# smoke run whose JSON report must attribute the measured wall across the
# five buckets (sum within 5%), list hot files, and flag the held-back
# tail as wasted prefetch.
run_report() {
    echo "==> cargo test -p monarch --test report_e2e -q"
    cargo test -p monarch --test report_e2e -q

    echo "==> monarch report smoke run"
    local tmp
    fixture
    cargo run -q -p monarch-cli -- report \
        --config "$tmp/cfg.json" --epochs 2 --prefetch 8 --json \
        > "$tmp/report.json"
    python3 - "$tmp/report.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
wall = r["wall_s"]
assert wall > 0, "report smoke: zero wall time"
buckets = r["ledger"]
total = sum(buckets[k] for k in (
    "pfs_bound_s", "copy_lane_saturated_s", "staged_s", "prefetch_lag_s",
    "peer_bound_s", "degraded_fallback_s", "lock_or_queue_s",
    "compute_bound_s"))
assert abs(total - wall) <= 0.05 * wall, \
    f"report smoke: buckets sum {total} vs wall {wall}"
assert r["reads"] > 0, "report smoke: no reads profiled"
assert r["top_hot"], "report smoke: empty hot list"
assert r["wasted_prefetch"], "report smoke: held-back tail not flagged"
PY
    rm -rf "$tmp"
    trap - EXIT
}

# Distributed peer cache end to end: the focused cluster test targets,
# then the cross-crate loopback e2e — two in-process nodes over real TCP,
# peer serving without a second PFS read, graceful PFS degradation when
# the owner's listener dies mid-epoch.
run_cluster() {
    echo "==> cargo test -p monarch-core cluster -q"
    cargo test -p monarch-core cluster -q
    echo "==> cargo test -p monarch --test cluster_e2e -q"
    cargo test -p monarch --test cluster_e2e -q
}

# Tier fault tolerance end to end: the scripted-fault unit targets
# (transient retry, permanent-error quarantine, half-open probe recovery,
# ENOSPC evict-and-retry), the real-tempdir chaos epochs, the
# deterministic sim outage scenario, and a `monarch health` CLI smoke.
run_chaos() {
    echo "==> cargo test -p monarch-core fault/quarantine/probe targets"
    cargo test -p monarch-core --lib -q -- transient_read_fault \
        permanent_read_fault half_open_probe enospc_install \
        flaky_driver quarantined_tier
    echo "==> cargo test -p monarch --test chaos_e2e -q"
    cargo test -p monarch --test chaos_e2e -q
    echo "==> cargo test -p dlpipe sim outage targets"
    cargo test -p dlpipe --lib -q -- ssd_outage no_op_fault_plan
    echo "==> monarch health smoke"
    local tmp
    fixture
    cargo run -q -p monarch-cli -- health --config "$tmp/cfg.json" --json \
        > "$tmp/health.json"
    python3 - "$tmp/health.json" <<'PY'
import json, sys
h = json.load(open(sys.argv[1]))
assert h["degraded"] is False, "health smoke: fresh hierarchy degraded"
states = [t["state"] for t in h["tiers"]]
assert states and all(s == "closed" for s in states), \
    f"health smoke: unexpected states {states}"
PY
    rm -rf "$tmp"
    trap - EXIT
}

# Model-behaviour gate: rerun the fixed-seed simulations behind the
# committed BENCH_sim_epoch.json and fail on drift beyond tolerance. Virtual
# time and deterministic — it gates what the model *does* (epoch shape,
# bytes moved, hit ratios, the outage and policy scenarios), not how fast
# the code runs; wall-clock performance is BENCHMARK.json's, measured on
# alternating parent/change pairs.
run_model() {
    echo "==> bench compare --baseline BENCH_sim_epoch.json --tolerance 15%"
    cargo run -q --release -p monarch-bench --bin bench -- compare \
        --baseline BENCH_sim_epoch.json --tolerance 15%
}

# Exporter smoke: start `monarch serve` on an ephemeral port against a
# generated dataset, scrape every endpoint, and check the Prometheus text
# carries the gauge/histogram/counter families and the snapshot is the
# versioned document with its policy section.
run_serve() {
    echo "==> monarch serve smoke"
    local tmp
    fixture
    # shellcheck disable=SC2064  # expand $tmp now, not at exit
    trap "rm -rf '$tmp'; kill \$(cat '$tmp/serve.pid' 2>/dev/null) 2>/dev/null || true" EXIT
    cargo run -q -p monarch-cli -- serve \
        --config "$tmp/cfg.json" --addr 127.0.0.1:0 --duration 30 \
        > "$tmp/serve.out" &
    echo $! > "$tmp/serve.pid"
    local addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n 's#^serving .* on http://##p' "$tmp/serve.out")
        [ -n "$addr" ] && break
        sleep 0.2
    done
    [ -n "$addr" ] || { echo "serve smoke: exporter never announced its address" >&2; exit 1; }
    curl -fsS "http://$addr/healthz" | grep -q ok \
        || { echo "serve smoke: /healthz not ok" >&2; exit 1; }
    curl -fsS "http://$addr/metrics" > "$tmp/metrics.out"
    for needle in 'monarch_tier_occupancy_bytes' 'monarch_lane_queued' \
                  'monarch_read_stall_driver_pread_seconds' '# TYPE monarch_tier_reads_total counter' \
                  '# TYPE monarch_policy_denials_total counter'; do
        grep -q "$needle" "$tmp/metrics.out" \
            || { echo "serve smoke: /metrics missing $needle" >&2; exit 1; }
    done
    curl -fsS "http://$addr/snapshot" | python3 -c '
import json, sys
s = json.load(sys.stdin)
assert s["schema_version"] == 1, "serve smoke: schema_version %r" % s.get("schema_version")
for key in ("stats", "gauges", "health", "policy"):
    assert key in s, "serve smoke: /snapshot lacks %s" % key
' || { echo "serve smoke: /snapshot is not the versioned document" >&2; exit 1; }
    curl -fsS "http://$addr/trace" > /dev/null \
        || { echo "serve smoke: /trace failed" >&2; exit 1; }
    kill "$(cat "$tmp/serve.pid")" 2>/dev/null || true
    rm -rf "$tmp"
    trap - EXIT
}

case "$stage" in
    fmt) run_fmt ;;
    clippy) run_clippy ;;
    size) run_size ;;
    lifecycle) run_lifecycle ;;
    test) run_test ;;
    benchapi) run_benchapi ;;
    cold) run_cold ;;
    hit) run_hit ;;
    trace) run_trace ;;
    prefetch) run_prefetch ;;
    policy) run_policy ;;
    report) run_report ;;
    cluster) run_cluster ;;
    chaos) run_chaos ;;
    model) run_model ;;
    serve) run_serve ;;
    all)
        run_fmt
        run_clippy
        run_size
        run_lifecycle
        run_test
        run_benchapi
        run_cold
        run_hit
        run_trace
        run_prefetch
        run_policy
        run_report
        run_cluster
        run_chaos
        run_serve
        run_model
        ;;
    *)
        echo "usage: scripts/check.sh [fmt|clippy|size|lifecycle|test|benchapi|cold|hit|trace|prefetch|policy|report|cluster|chaos|serve|model|all]" >&2
        exit 2
        ;;
esac

echo "OK"
