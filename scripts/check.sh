#!/usr/bin/env bash
# Repository-wide quality gate: formatting, lints (warnings promoted to
# errors), the full test suite, the CLI smokes and the model-behaviour
# gate. Run before pushing.
#
#   scripts/check.sh            # everything
#   scripts/check.sh fmt        # one stage: fmt | clippy | size | lifecycle | stall | locks | test | asan | benchapi | cold | hit | trace | prefetch | policy | report | cluster | chaos | serve | model
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
    # 14674 before the four policy kinds nothing selected (lfu, cost_aware,
    # round_robin, size_threshold) were deleted and every lock moved onto
    # std::sync through locks.rs; 14532 before a timed read's phases were
    # written once (the stall profile, owned by the access profiler, and
    # the ledger's time sums read off it) and the telemetry knobs no caller
    # set became constants. Splitting telemetry.rs into four modules cost
    # 44 of the lines that saved. 14527 since a tier's breaker is driven
    # through one gate and one settle, its transitions booked once in
    # lifecycle.rs, and the health knobs no caller set became constants.
    # 14086 since the journal is the one transition log (the residency
    # timeline and its Observatory wrapper deleted), its serde derive the
    # one writer of a line (the hand-rolled JSON writer deleted), and the
    # health table renderer went with `monarch health`. 14085 since a
    # foreground read is booked once (`Lifecycle::read_served`, which the
    # read loop, the peer path and the simulator call; the booking tails it
    # replaced deleted) and `StatsSnapshot::wasted_prefetch_ratio` and
    # `StorageHierarchy::{local_full, local_free}`, which nothing called,
    # were pruned. 14083 since a copy's fetch hands the frontier to its
    # next claim and a read that leaves bytes to fetch yields to the copy
    # (staging.rs), the copy's trace spans are built by one helper and its
    # outcome matched once, and the prefetch-staged instant is booked once,
    # in `Lifecycle::placed`. 13994 since a plan is walked once (the
    # window's bookkeeping moved into `Lifecycle::{plan_opened, plan_read,
    # plan_closed}`, the hit into `read_served`, `withdraw_queued` and
    # `PrefetchWindow::{resolve_by_name, next_index}` deleted) and
    # `MonarchConfigBuilder` gave way to `MonarchConfig::new`. 13811 since
    # the exposition is a pure function of the one document
    # (`TelemetrySnapshot::exposition`; `prometheus_text` deleted) and the
    # gauges are read as the document is assembled (`GaugeRegistry`, its
    # `Gauge` cells and `Sampler::refresh` deleted). 13805 since a copy's
    # run is booked once (`Lifecycle::{started, room, stage}` and the run
    # closed by `placed` / `unplaced`; the pool's telemetry, `CopyTraceCtx`
    # and the hand-built copy spans deleted). 13706 since the namespace
    # slab is the one residency book (`ClusterView`, the policy engine's
    # pin set and the eviction policies' resident book deleted; pin and
    # touch stamp kept in the slot). 13630 since the test-only
    # `FaultyDriver` / `FaultKind` folded into `FlakyDriver` (its one
    # fault-injection driver, `FlakyOutcome::Injected`), pool jobs are
    # labelled by `FileId` and the policy's feature source is read by id,
    # once per decision. Raised to 13717 (+87) when a warm hit began to
    # book itself on a tally its thread owns: `Stats` is one `Tally` a
    # thread, stripe.rs hands out owned stripes (claim mask, release at
    # thread exit, plain adds) and spreads the threads past 16 over
    # shared copies, and the timing turn leaves probe reads out; deleted
    # beside that were `InFlight`, the local-hit stripes, the per-tier
    # read and write counter structs and the profiler's `seen` /
    # `tracked`, and the policy's placement-word bits are set through one
    # `set_mark`. 13620 since a copy names its file by `FileId` from
    # schedule to settle (the namespace moves, `Lifecycle`'s transitions,
    # the policy hooks and the eviction choice take or return ids; the
    # re-resolutions, the victims' `String`s and the moves' `Result`s
    # deleted: -38), `TimeSeries` is a plain `Vec` alias (its newtype
    # methods and trait impls deleted) and the splitmix64 finalizer is
    # written once, in hash.rs. 13619 since a plain local hit is one straight
    # pass of the read loop (`ReadAttempt`, its `Result<Option<…>>` and the
    # marks' zip chain deleted; `read_full` sized by the loop's own lookup),
    # paying for `TierHealth::clean`, the inline `note_read` exit, a trace
    # sample counted per thread and `info`'s `None` for an interned-only id.
    # Raised to 13852 (+233) when a warm hit began to count in cells its
    # thread owns: the count cells, their flush and their fold (the
    # `ReadCount` a lookup hands the booking, `MetadataContainer::{counter,
    # counts}`, the cells built as a constant), `Placement` (what a lookup
    # returns now that it cannot return an exact count), `Striped::owned`,
    # and the booking through the handles the read holds (`ThreadTally`,
    # `Lifecycle::read_served_by`, `AccessProfiler::record_counted`);
    # `count_bytes` and `count_read` deleted. 13836 since a tier has one
    # driver: `TimedDriver`, `Tier::raw` and
    # `StorageHierarchy::instrument_drivers` deleted, a copy's source fetch,
    # install write and failed-install cleanup counted and timed where
    # `Lifecycle` books them (`fetch`, `stage`, `install`, `discard`), and
    # the registry's histograms held by value (nothing else holds one).
    # 13821 since every time comes from one clock. Real code grew by 26
    # lines: `clock.rs` (+66) and the handles that hand the clock out
    # came in; `HealthConfig` / `set_config` / `cooldown_us`, the three
    # private origins and their conversions (`nanos_at`, `Cluster::now_us`,
    # `TelemetryRegistry::now_micros`, `Cluster::remote_deadline`) and the
    # dead `LatencyHistogram::{record_duration, record_duration_n, merge}`
    # went. The rest of the fall is a truer count, not less code: the
    # test-only accessors (`Staging::{progress, parked}`,
    # `TransferEngine::staging_*`, `Monarch::shutdown_flag`,
    # `MetadataContainer::clock`, 41 lines) moved into trailing `cfg(test)`
    # impl blocks. The staging's count of parked reads that the doomed-copy
    # tests wait on is `cfg(test)` but sits inside the wait loop, so 12 of
    # its lines still count here. Held at 13821 when a timed hit's times
    # went to one histogram set striped as one (the set, its handles and
    # the split booking, about +90 lines): `Striped<LedgerAccum>`, the
    # registry's own `read_latency` and `enabled`, the profiler's `tiers`
    # and the `Record` cells the fold fed went, and `LedgerSnapshot::delta`,
    # `ReadTiming::default` and the report's three bucket lists were
    # written once each.
    local core_limit=13821
    local core_lines
    core_lines=$(find crates/monarch-core/src -name '*.rs' ! -name '*_tests.rs' -print0 |
        sort -z |
        xargs -0 awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }')
    echo "==> monarch-core non-test lines: $core_lines (limit $core_limit)"
    if [ "$core_lines" -gt "$core_limit" ]; then
        echo "size gate: crates/monarch-core/src has $core_lines non-test lines > $core_limit" >&2
        exit 1
    fi
    # The figure harness: one scenario table behind `bench fig` (1888
    # non-test lines as 16 figure binaries, each with its own setup, run
    # loop, table printer and save call). 1087 since the figures are one
    # table in figures.rs, one printer renders any row list, and the model
    # gate shares its outage and peer-cluster scenarios with the figures.
    # 771 since the model gate is one entry of that table (`sim_epoch`,
    # checked byte for byte by tier-1): `snapshot.rs`, `bench snapshot`,
    # `bench compare` and its tolerance parsing deleted.
    local bench_limit=771
    local bench_lines
    bench_lines=$(find crates/bench/src -name '*.rs' ! -name '*_tests.rs' -print0 |
        sort -z |
        xargs -0 awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }')
    echo "==> crates/bench non-test lines: $bench_lines (limit $bench_limit)"
    if [ "$bench_lines" -gt "$bench_limit" ]; then
        echo "size gate: crates/bench/src has $bench_lines non-test lines > $bench_limit" >&2
        exit 1
    fi
    # The model gate is a figure, `results/sim_epoch.json`; a `BENCH_*.json`
    # snapshot at the repo root would be a second, tolerance-gated copy.
    local snapshots
    snapshots=$(find . -maxdepth 1 -name 'BENCH_*.json')
    if [ -n "$snapshots" ]; then
        echo "size gate: a BENCH_*.json snapshot is back at the repo root:" >&2
        echo "$snapshots" >&2
        exit 1
    fi
    # The `unsafe` ratchet: per package of the workspace, the lines that
    # use `unsafe` (comment lines left out; tests and examples counted).
    # A count may only fall; a package not named below has none. Set to
    # the counts of the commit that brought the ratchet in: monarch-core
    # 41 (driver/mapped.rs 16, staging.rs 9, stripe.rs 4, tests 12),
    # monarch-ffi 55, and the root package's example shim 1.
    local pkg dirs count limit
    for pkg in . crates/* vendor/*; do
        case "$pkg" in
            .) dirs="src tests examples" limit=1 ;;
            crates/monarch-core) dirs=$pkg limit=41 ;;
            crates/monarch-ffi) dirs=$pkg limit=55 ;;
            *) dirs=$pkg limit=0 ;;
        esac
        # shellcheck disable=SC2086 # $dirs is a list of directories
        count=$(find $dirs -name '*.rs' -not -path '*/target/*' -print0 |
            xargs -0 grep -hw unsafe | grep -vc '^[[:space:]]*//' || true)
        if [ "$count" -gt "$limit" ]; then
            echo "size gate: $pkg has $count lines using unsafe > $limit" >&2
            exit 1
        fi
    done
    echo "==> unsafe lines per package within their ceilings"
    # Figures are entries of the table, not binaries: `bench` is the one.
    local extra
    extra=$(find crates/bench/src/bin -name '*.rs' ! -name bench.rs)
    if [ -n "$extra" ]; then
        echo "size gate: crates/bench/src/bin holds more than bench.rs:" >&2
        echo "$extra" >&2
        exit 1
    fi
}

# A copy's lifecycle is booked in one place (DESIGN §3.3): what each of
# its transitions does to the namespace, the counters and the journal is
# written once, in `lifecycle.rs`, and called from the engine and from the
# simulator. So are a tier's health transitions (DESIGN §10) and a prefetch
# promotion: the breaker is driven through `TierHealth::{gate, settle}`
# only, and `Lifecycle::tier_settled` / `promoted` book what follows.
# Outside `lifecycle.rs` (and `metadata.rs`, which defines the namespace
# moves, and `health.rs`, which defines the breaker) no non-test code of
# either may make those moves, bump those counters, drive the probe slot or
# build those events by hand — a second site cannot come back.
# `telemetry/journal.rs` defines `EventKind` and projects it (tag, file): it
# matches on the variants, so only the calls are looked for there.
#
# A foreground read is booked once too (DESIGN §3.3): its counters, its
# class, its profiler record and its span tree are written by
# `Lifecycle::read_served`, which the engine's read loop, the peer path and
# the simulator all call. Outside `lifecycle.rs` (and `observe/profiler.rs`,
# which defines the profiler's record calls and `ReadClass::of`) no non-test
# code of either calls `record_counted`, `count_read`, `time_read`, the
# profiler's `record_read` or `ReadClass::of`, or records a `read`,
# `metadata_lookup`, `tier_resolve` or `driver_pread` span — a second
# booking site cannot come back. Calls are matched across line breaks.
#
# A foreground read takes one pass (DESIGN §3.1): a plain local hit runs
# straight through `Monarch::read`'s loop, and every other read goes round
# the same loop. In the non-test code of `middleware.rs` a tier's
# `read_at(` and the namespace's `resolve_for_read(` each have exactly one
# call site (line comments left out) — a fast path beside the loop, with a
# lookup and a pread of its own, cannot come back. Calls are matched across
# line breaks.
#
# A plan is walked once (DESIGN §8): what a foreground read does to the
# access plan — the cursor it advances, the prefetch pin it lifts, the
# clairvoyant book it advances — what opening and closing a plan do to the
# pins and the waste count, and the prefetch hit are booked by
# `Lifecycle::{plan_opened, plan_read, plan_closed, read_served}` over the
# `PrefetchWindow` the engine and the simulator each own. Outside
# `lifecycle.rs` (and `stats.rs`, `policy/` and `prefetch.rs`, which define
# those calls) no non-test code of either calls `prefetch_hit`,
# `prefetch_wasted`, `unpin`, `note_plan_read`, `clear_pins`, `set_plan` or
# `.on_read` — a second plan walker cannot come back. Calls are matched
# across line breaks.
#
# A copy's run is booked once too (DESIGN §3.3): its scheduling span, the
# queue wait a worker found it had, its `copy_started` event, its
# placement decision, the stages of its install and how it ended — the
# queue-wait, pool-exec and copy-duration histograms, the `copy_scheduled`
# / `prefetch_scheduled` / `queue_wait` / `placement_decide` / `copy_read`
# / `copy_write` / `metadata_register` / `copy_exec` spans — are written by
# `Lifecycle::{scheduled, started, room, stage, placed, unplaced}`, which
# the engine's copy job and the simulator's event loop both call. Outside
# `lifecycle.rs` no non-test code of either builds `EventKind::CopyStarted`
# (`telemetry/journal.rs`, which defines it, is passed over), names those
# spans, records into those histograms, or calls the policy's `place(`
# (`policy/`, which defines it, is passed over) — the pool's stamping and
# the simulator's mirror cannot come back. Calls are matched across line
# breaks.
#
# The journal is the one transition log (DESIGN §7.2): no non-test code of
# either, `lifecycle.rs` included, names the residency timeline's types, and
# `observe/timeline.rs` does not exist — a second ring that books every
# transition again cannot come back.
#
# The namespace slab is the one residency book (DESIGN §11): a file's
# identity inside `monarch-core` is its `FileId`, and its per-file state
# (placement, pin, touch stamp, reuse label) lives in its slot. Outside
# `MemDriver`'s store in `driver.rs` — the in-memory tier's files, which
# are its bytes, not a book about them — no non-test code of the crate
# declares a `String`-keyed map or set (`Map<String` / `Set<String`) — a
# second per-file book keyed by name cannot come back.
#
# A copy names its file by `FileId` from schedule to settle (DESIGN §3.3,
# §11): a name is resolved once, where it comes in from outside the crate
# (`Monarch::{read, read_full, evict, file_size}`, the peer server), and
# read back off the slot only where it leaves the process (a driver call, a
# journal event, a trace arg). In the non-test code of `lifecycle.rs`,
# `transfer.rs`, `policy/` and `dlpipe::sim` no call resolves a name
# through the namespace: no `resolve(`, `intern(`, `find(` or `get(` on the
# metadata container (`metadata`, `metadata()`, `files`, `namespace()`),
# and none calls the by-name policy hooks `.on_access(` / `.on_placed(`
# (their `_id` forms take the id). Exempt are the functions that take a name from outside: the policy
# engine's by-name wrappers `on_access` and `on_placed`, and the engine's
# `evict` and `plan`, whose one lookup turns the name (the plan's names)
# into ids. Calls are matched across line breaks; the function a call sits
# in is the last `fn` before it.
#
# Time has one source (DESIGN §3.3): every time `monarch-core` reads or
# waits on comes from the instance's one `Clock` (`clock.rs`), which the
# builder hands to the registry, the breakers and the peer gates, so a test
# can drive it by hand. Outside `clock.rs` no non-test code of the crate
# calls `Instant::now(` or `SystemTime::now(` except the pool's condvar
# deadline in `ThreadPool::shutdown_within` (it waits on other threads, not
# on booked time); none calls `thread::sleep(` except the peer server's
# accept poll (`PeerServer::start`); none declares a name of type `Instant`
# (a second origin) except the parameters of `StallProfile::record`, whose
# signature the benchmark pins; `Clock::host(` is called only by the
# defaults the builder overrides (`MonarchBuilder::default`,
# `HealthRegistry::new`, `TelemetryRegistry::with_namespace`,
# `Cluster::new`); and the breaker's test-only cooldown knob
# (`HealthConfig`, `set_config(`, `cooldown_us`) stays gone. Line comments
# are left out; the function a match sits in is the last `fn` before it.
#
# The exposition has one writer (DESIGN §7.3): `/metrics` is
# `TelemetrySnapshot::exposition` of the one document. Outside
# `telemetry/exposition.rs`, which holds that renderer, no non-test code
# under `crates/` writes a `# TYPE` or `# HELP` line, and none names
# `prometheus_text`, `GaugeRegistry`, `publish_gauges` or `render_into` —
# a second renderer that reads live state, or a second store of gauges,
# cannot come back. Non-test code is what precedes a file's column-0
# `#[cfg(test)]`.
run_lifecycle() {
    echo "==> lifecycle gate: one booking site per copy and tier transition"
    local calls='begin_copy\(|finish_copy\(|abort_copy\(|evict_with\(|\.record_evict\(|\.copy_scheduled\(\)|\.copy_completed\(\)|\.placement_skip\(\)|\.copy_requeue\(\)|\.tier_quarantine\(\)|\.tier_recovery\(\)|\.prefetch_promote\(\)|probe_permit\(|probe_result\('
    local events='(^|[^A-Za-z_])EventKind::(CopyScheduled|PrefetchScheduled|CopyCompleted|PlacementSkipped|CopyRequeued|Evicted|TierQuarantined|TierProbed|TierRecovered|PrefetchPromoted)\b'
    local bad=0 f pat
    while IFS= read -r f; do
        case "$f" in
            */lifecycle.rs | */metadata.rs | */health.rs | *_tests.rs) continue ;;
            */telemetry/journal.rs) pat="$calls" ;;
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
    echo "==> lifecycle gate: one booking site per foreground read"
    while IFS= read -r f; do
        case "$f" in
            */lifecycle.rs | */observe/profiler.rs | *_tests.rs) continue ;;
        esac
        if awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" | FILE="$f" perl -0777 -ne '
            my $found = 0;
            while (/record_read_id\s*\(|record_counted\s*\(|count_read\s*\(|time_read\s*\(|profiler(?:\(\))?\s*\.\s*record_read\s*\(|ReadClass\s*::\s*of\s*\(|names\s*::\s*(?:READ|METADATA_LOOKUP|TIER_RESOLVE|DRIVER_PREAD)\b|SpanRecord\s*::\s*new\s*\(\s*"(?:read|metadata_lookup|tier_resolve|driver_pread)"/g) {
                my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
                (my $what = $&) =~ s/\s+//g;
                print "$ENV{FILE}:$line: $what\n";
                $found = 1;
            }
            exit($found ? 0 : 1);'; then
            bad=1
        fi
    done < <(find crates/monarch-core/src crates/dlpipe/src/sim -name '*.rs' | sort)
    if [ "$bad" -ne 0 ]; then
        echo "lifecycle gate: book the read through Lifecycle::read_served instead" >&2
        exit 1
    fi
    echo "==> lifecycle gate: one foreground pread"
    f=crates/monarch-core/src/middleware.rs
    if ! awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" | FILE="$f" perl -0777 -ne '
        s{//[^\n]*}{}g;
        my $ok = 1;
        for my $name ("read_at", "resolve_for_read") {
            my @lines;
            while (/(?<![A-Za-z_])\Q$name\E\s*\(/g) {
                push @lines, 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
            }
            next if @lines == 1;
            print "$ENV{FILE}: ", scalar(@lines), " call sites of $name( (lines @lines); want 1\n";
            $ok = 0;
        }
        exit($ok ? 0 : 1);'; then
        echo "lifecycle gate: serve the read in Monarch::read_impl's one loop instead of a path beside it" >&2
        exit 1
    fi
    echo "==> lifecycle gate: one plan walker"
    while IFS= read -r f; do
        case "$f" in
            */lifecycle.rs | */stats.rs | */policy/* | */prefetch.rs | *_tests.rs) continue ;;
        esac
        if awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" | FILE="$f" perl -0777 -ne '
            my $found = 0;
            while (/\b(?:prefetch_hit|prefetch_wasted|unpin|note_plan_read|clear_pins|set_plan)\s*\(|\.\s*on_read\s*\(/g) {
                my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
                (my $what = $&) =~ s/\s+//g;
                print "$ENV{FILE}:$line: $what\n";
                $found = 1;
            }
            exit($found ? 0 : 1);'; then
            bad=1
        fi
    done < <(find crates/monarch-core/src crates/dlpipe/src/sim -name '*.rs' | sort)
    if [ "$bad" -ne 0 ]; then
        echo "lifecycle gate: walk the plan through Lifecycle::{plan_opened, plan_read, plan_closed} and book the hit in read_served instead" >&2
        exit 1
    fi
    echo "==> lifecycle gate: one booking site per copy's run"
    while IFS= read -r f; do
        case "$f" in
            */lifecycle.rs | *_tests.rs) continue ;;
        esac
        if awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" | FILE="$f" perl -0777 -ne '
            my $found = 0;
            my $journal = $ENV{FILE} =~ m{/telemetry/journal\.rs$};
            my $policy = $ENV{FILE} =~ m{/policy/};
            while (/(?<![A-Za-z_])EventKind\s*::\s*CopyStarted\b|names\s*::\s*(?:COPY_SCHEDULED|PREFETCH_SCHEDULED|QUEUE_WAIT|PLACEMENT_DECIDE|COPY_READ|COPY_WRITE|METADATA_REGISTER|COPY_EXEC)\b|SpanRecord\s*::\s*new\s*\(\s*"(?:copy_scheduled|prefetch_scheduled|queue_wait|placement_decide|copy_read|copy_write|metadata_register|copy_exec)"|\b(?:queue_wait\w*|pool_exec|copy_duration)\s*\(\s*\)\s*\.\s*record\w*\s*\(|\.\s*place\s*\(/g) {
                (my $what = $&) =~ s/\s+//g;
                next if $journal && $what =~ /^EventKind/;
                next if $policy && $what eq ".place(";
                my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
                print "$ENV{FILE}:$line: $what\n";
                $found = 1;
            }
            exit($found ? 0 : 1);'; then
            bad=1
        fi
    done < <(find crates/monarch-core/src crates/dlpipe/src/sim -name '*.rs' | sort)
    if [ "$bad" -ne 0 ]; then
        echo "lifecycle gate: book the copy's run through Lifecycle::{scheduled, started, room, stage, placed, unplaced} instead" >&2
        exit 1
    fi
    echo "==> lifecycle gate: one booking site per tier operation"
    # A tier has one driver; whoever calls it books the call. A copy's
    # source fetch, install write and failed-install cleanup are counted and
    # timed by Lifecycle::{fetch, stage, install, discard}; the read loop
    # times only its failed pread (a served read is timed by read_served).
    # stats.rs is where the counters live; a definition is not a call.
    while IFS= read -r f; do
        case "$f" in
            */lifecycle.rs | */stats.rs | *_tests.rs) continue ;;
        esac
        if awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" | FILE="$f" perl -0777 -ne '
            s{//[^\n]*}{}g;
            my $found = 0;
            my $middleware = $ENV{FILE} =~ m{/middleware\.rs$};
            my @samples;
            while (/(?<![A-Za-z_])(record_read|record_write|record_remove|write_latency|read_latency)\s*\(/g) {
                my ($name, $before) = ($1, substr($_, 0, $-[0]));
                next if $before =~ /\bfn\s+$/;
                my $line = 1 + ($before =~ tr/\n//);
                if ($middleware && $name eq "read_latency") {
                    push @samples, $line;
                    next;
                }
                print "$ENV{FILE}:$line: $name(\n";
                $found = 1;
            }
            if (@samples > 1) {
                print "$ENV{FILE}: ", scalar(@samples), " read_latency( sites (lines @samples); want 1, the failed pread\n";
                $found = 1;
            }
            while (/\b(?:TimedDriver|instrument_drivers)\b/g) {
                my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
                print "$ENV{FILE}:$line: $&\n";
                $found = 1;
            }
            if ($ENV{FILE} =~ m{/hierarchy\.rs$} && /\bstruct\s+Tier\s*\{[^}]*\braw\s*:/) {
                print "$ENV{FILE}: Tier has a raw field\n";
                $found = 1;
            }
            exit($found ? 0 : 1);'; then
            bad=1
        fi
    done < <(find crates/monarch-core/src crates/dlpipe/src/sim -name '*.rs' | sort)
    if [ "$bad" -ne 0 ]; then
        echo "lifecycle gate: call the tier's one driver and book the call through Lifecycle::{fetch, stage, install, discard} instead" >&2
        exit 1
    fi
    echo "==> lifecycle gate: the journal is the one transition log"
    if [ -e crates/monarch-core/src/observe/timeline.rs ]; then
        echo "crates/monarch-core/src/observe/timeline.rs exists" >&2
        bad=1
    fi
    while IFS= read -r f; do
        case "$f" in
            *_tests.rs) continue ;;
        esac
        if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E '\bResidency(Timeline|Event)'; then
            bad=1
        fi
    done < <(find crates/monarch-core/src crates/dlpipe/src/sim -name '*.rs' | sort)
    if [ "$bad" -ne 0 ]; then
        echo "lifecycle gate: read transitions off the event journal instead of a second log" >&2
        exit 1
    fi
    echo "==> lifecycle gate: one residency book"
    while IFS= read -r f; do
        case "$f" in
            *_tests.rs) continue ;;
        esac
        if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E '(Map|Set)<String\b' |
            grep -vE '^crates/monarch-core/src/driver\.rs:[0-9]+: +files: RwLock<FxHashMap<String, Arc<Vec<u8>>>>,$'; then
            bad=1
        fi
    done < <(find crates/monarch-core/src -name '*.rs' | sort)
    if [ "$bad" -ne 0 ]; then
        echo "lifecycle gate: key per-file state by FileId in the namespace slab instead of by name" >&2
        exit 1
    fi
    echo "==> lifecycle gate: one per-file count site"
    while IFS= read -r f; do
        case "$f" in
            *_tests.rs) continue ;;
        esac
        if awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" | FILE="$f" perl -0777 -ne '
            s{//[^\n]*}{}g;
            my $found = 0;
            my $metadata = $ENV{FILE} =~ m{/metadata\.rs$};
            while (/\bcounters\s*\.\s*(?:reads|bytes)\b(?:\s*\[[^\]]*\])?/g) {
                my ($what, $before, $after) = ($&, substr($_, 0, $-[0]), substr($_, $+[0]));
                next if $after =~ /^\s*\.\s*load\s*\(/;
                my ($fn) = $before =~ /.*\bfn\s+(\w+)/s;
                next if $metadata && ($fn // "") eq "flush";
                $what =~ s/\s+//g;
                my $line = 1 + ($before =~ tr/\n//);
                print "$ENV{FILE}:$line: $what in fn ", $fn // "?", "\n";
                $found = 1;
            }
            exit($found ? 0 : 1);'; then
            bad=1
        fi
    done < <(find crates/monarch-core/src -name '*.rs' | sort)
    if [ "$bad" -ne 0 ]; then
        echo "lifecycle gate: count a read in its thread's cell (MetadataContainer::counter); only metadata.rs's flush writes a file's counters line" >&2
        exit 1
    fi
    echo "==> lifecycle gate: one identity on the copy path"
    local exempt
    while IFS= read -r f; do
        case "$f" in
            */policy/mod.rs) exempt="on_access on_placed" ;;
            */transfer.rs) exempt="evict plan" ;;
            *) exempt="" ;;
        esac
        if awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" | FILE="$f" EXEMPT="$exempt" perl -0777 -ne '
            my %exempt = map { $_ => 1 } split " ", $ENV{EXEMPT};
            my $found = 0;
            while (/\b(?:metadata|files|namespace)(?:\(\))?\s*\.\s*(?:resolve|intern|find|get)\s*\(|\.\s*on_(?:access|placed)\s*\(/g) {
                my ($what, $before) = ($&, substr($_, 0, $-[0]));
                $what =~ s/\s+//g;
                my ($fn) = $before =~ /.*\bfn\s+(\w+)/s;
                next if $exempt{$fn // ""};
                my $line = 1 + ($before =~ tr/\n//);
                print "$ENV{FILE}:$line: $what\n";
                $found = 1;
            }
            exit($found ? 0 : 1);'; then
            bad=1
        fi
    done < <(find crates/monarch-core/src/lifecycle.rs crates/monarch-core/src/transfer.rs \
        crates/monarch-core/src/policy crates/dlpipe/src/sim -name '*.rs' | sort)
    if [ "$bad" -ne 0 ]; then
        echo "lifecycle gate: carry the file's FileId and read its name off the slot (name_of) instead" >&2
        exit 1
    fi
    echo "==> lifecycle gate: one clock"
    while IFS= read -r f; do
        case "$f" in
            */clock.rs | *_tests.rs) continue ;;
        esac
        if awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" | FILE="$f" perl -0777 -ne '
            s{//[^\n]*}{}g;
            my %allowed = map { $_ => 1 } (
                "pool.rs now shutdown_within",
                "cluster.rs sleep start",
                "histogram.rs Instant record",
                "builder.rs host default",
                "health.rs host new",
                "mod.rs host with_namespace",
                "cluster.rs host new",
            );
            (my $file = $ENV{FILE}) =~ s{.*/}{};
            my $found = 0;
            while (/\b(?:Instant|SystemTime)\s*::\s*now\s*\(|\bthread\s*::\s*sleep\s*\(|\b\w+\s*:\s*(?:Option\s*<\s*)?(?:std\s*::\s*time\s*::\s*)?Instant\b|\bClock\s*::\s*host\s*\(|\b(?:HealthConfig|cooldown_us)\b|\bset_config\s*\(/g) {
                my ($what, $before) = ($&, substr($_, 0, $-[0]));
                $what =~ s/\s+//g;
                my $kind = $what =~ /::now\($/ ? "now"
                    : $what =~ /sleep\($/ ? "sleep"
                    : $what =~ /Instant$/ ? "Instant"
                    : $what =~ /host\($/ ? "host" : "knob";
                my ($fn) = $before =~ /.*\bfn\s+(\w+)/s;
                next if $allowed{"$file $kind " . ($fn // "")};
                my $line = 1 + ($before =~ tr/\n//);
                print "$ENV{FILE}:$line: $what\n";
                $found = 1;
            }
            exit($found ? 0 : 1);'; then
            bad=1
        fi
    done < <(find crates/monarch-core/src -name '*.rs' | sort)
    if [ "$bad" -ne 0 ]; then
        echo "lifecycle gate: read and wait on the instance's Clock (crate::clock) instead" >&2
        exit 1
    fi
    echo "==> lifecycle gate: one exposition writer"
    while IFS= read -r f; do
        case "$f" in
            */tests/* | *_tests.rs) continue ;;
        esac
        if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E '\b(prometheus_text|GaugeRegistry|publish_gauges|render_into)\b'; then
            bad=1
        fi
        case "$f" in
            */telemetry/exposition.rs) continue ;;
        esac
        if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E '# (TYPE|HELP)'; then
            bad=1
        fi
    done < <(find crates -name '*.rs' | sort)
    if [ "$bad" -ne 0 ]; then
        echo "lifecycle gate: render the document through TelemetrySnapshot::exposition instead" >&2
        exit 1
    fi
}

# A timed read's time is written once (DESIGN §7.2): the access profiler
# records its four phases into the stall profile it owns, in the same call
# that books its pread by class in the time-lost ledger, and the ledger's
# wall, lock-queue and copy-wait sums are read off that profile. Outside
# `observe/profiler.rs` and `telemetry/histogram.rs` (which defines
# `StallProfile`), no non-test code of monarch-core or dlpipe::sim records
# into a stall profile or its histograms, or makes another — a second
# writer, and a second copy of the numbers to drift, cannot come back.
# Calls are matched across line breaks. Non-test code is what precedes a
# file's column-0 `#[cfg(test)]`.
run_stall() {
    echo "==> stall gate: one writer of a timed read's phases"
    local bad=0 f
    while IFS= read -r f; do
        case "$f" in
            */observe/profiler.rs | */telemetry/histogram.rs | *_tests.rs) continue ;;
        esac
        if awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" | FILE="$f" perl -0777 -ne '
            my $found = 0;
            while (/stall_profile\(\)\s*\.\s*record\w*\s*\(|\b(?:lock_wait|queue_wait|driver_pread|copy_wait|degraded_fallback)\s*\.\s*record\w*\s*\(|record_timing\s*\(|StallProfile\s*::\s*(?:default|new)\b/g) {
                my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
                (my $what = $&) =~ s/\s+//g;
                print "$ENV{FILE}:$line: $what\n";
                $found = 1;
            }
            exit($found ? 0 : 1);'; then
            bad=1
        fi
    done < <(find crates/monarch-core/src crates/dlpipe/src/sim -name '*.rs' | sort)
    if [ "$bad" -ne 0 ]; then
        echo "stall gate: record the read through AccessProfiler::count_read / time_read / record_read instead" >&2
        exit 1
    fi
    echo "==> stall gate: a read's booking folds no count cells"
    python3 - <<'PY' || { echo "stall gate: a read's booking must not fold the namespace's counts (reads_of / counts / bytes_of); estimate from the read's weight" >&2; exit 1; }
import re, sys

def non_test(path):
    text = open(path).read()
    cut = re.search(r"^#\[cfg\(test\)\]", text, re.M)
    return text[: cut.start()] if cut else text

def functions(text):
    """Every `fn NAME` with a body, found by matching brackets."""
    for m in re.finditer(r"\bfn\s+(\w+)", text):
        depth, i = 0, m.end()
        while i < len(text) and not (depth == 0 and text[i] in "{;"):
            depth += {"(": 1, "[": 1, ")": -1, "]": -1}.get(text[i], 0)
            i += 1
        start = i = i + 1
        depth = text[i - 1] == "{"
        while depth and i < len(text):
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            i += 1
        yield m.group(1), text[start:i]

src = "crates/monarch-core/src/"
code = "".join(non_test(src + f) for f in (
    "lifecycle.rs", "observe/profiler.rs", "telemetry/histogram.rs", "stats.rs", "stripe.rs"))
# Of the namespace, only what a read's count handle runs.
meta = non_test(src + "metadata.rs")
code += meta[meta.index("fn flush(") : meta.index("/// log2 of the first chunk")]
bodies = {}
for name, body in functions(code):
    bodies.setdefault(name, []).append(body)
# Every function of these files a read's booking can reach by name, from
# the engine's booking and the by-name one (a name stands for all its
# definitions, so the walk over-approximates).
seen, todo, path = set(), ["read_served_by", "record_read"], {}
while todo:
    name = todo.pop()
    if name in seen:
        continue
    seen.add(name)
    for body in bodies.get(name, []):
        fold = re.search(r"\b(reads_of|counts|bytes_of)\s*\(", body)
        if fold:
            chain, at = [name], name
            while at in path:
                at = path[at]
                chain.append(at)
            print("stall gate: " + " <- ".join(chain) + " calls " + fold.group(1), file=sys.stderr)
            sys.exit(1)
        for callee in re.findall(r"\b(\w+)\s*\(", body):
            if callee in bodies and callee not in seen:
                path.setdefault(callee, name)
                todo.append(callee)
PY
}

# One poison rule (DESIGN §5): a holder's panic releases the lock and the
# next caller proceeds. It is written once, in `monarch-core`'s `locks.rs`,
# and every std lock of the crate is taken through it. Outside it no
# non-test code names the lock crates the workspace used to vendor, or
# handles poison itself: no `PoisonError`, and no `.lock()`, `.read()` or
# `.write()` followed by `.expect(` or `.unwrap()` (on one line or across a
# line break). Non-test code is what precedes a file's column-0
# `#[cfg(test)]`.
run_locks() {
    echo "==> locks gate: one poison rule, in crates/monarch-core/src/locks.rs"
    local bad=0 f
    while IFS= read -r f; do
        case "$f" in
            */locks.rs | *_tests.rs) continue ;;
        esac
        if awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" | FILE="$f" perl -0777 -ne '
            my $found = 0;
            while (/parking_lot|crossbeam|PoisonError|\.(?:lock|read|write)\(\)\s*\.(?:expect\(|unwrap\(\))/g) {
                my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
                (my $what = $&) =~ s/\s+//g;
                print "$ENV{FILE}:$line: $what\n";
                $found = 1;
            }
            exit($found ? 0 : 1);'; then
            bad=1
        fi
    done < <(find crates/monarch-core/src -name '*.rs' | sort)
    if [ "$bad" -ne 0 ]; then
        echo "locks gate: take the lock through crate::locks instead" >&2
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

# `unsafe` under a sanitizer (ROADMAP item 15): the test binaries of
# monarch-core and monarch-ffi built by the installed nightly with
# AddressSanitizer, LeakSanitizer on. `handle_sigbus=0` leaves SIGBUS to the
# test that expects a child to die of it (`tests/mapped_reads.rs`); ASan's
# own handler would turn that death into exit 1. A missing nightly fails
# the stage; it is never skipped.
run_asan() {
    echo "==> cargo +nightly test with AddressSanitizer: monarch-core, monarch-ffi"
    if ! cargo +nightly --version > /dev/null 2>&1; then
        echo "asan stage: no nightly toolchain (cargo +nightly) to build with -Zsanitizer=address" >&2
        exit 1
    fi
    ASAN_OPTIONS=handle_sigbus=0 RUSTFLAGS=-Zsanitizer=address \
        cargo +nightly test --offline --target x86_64-unknown-linux-gnu \
        -p monarch-core -p monarch-ffi --tests
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
# shared locks: three seconds of `warm_rand_4k` must stay within 1.0 times
# a bare `pread` of the same bytes (with five clock reads and five
# histogram records on every hit it ran at 2.2-2.5; timing one hit in
# sixteen, at 1.66-1.79; with the descriptor table behind a reader-striped
# gate and one counters line per file, at 1.51-1.63; copying small reads
# out of a mapping instead of calling `pread`, at 0.9-1.0, and the
# medians of the three changes after that at 0.906-0.915; booking a hit
# on a tally its thread owns, below that), with every read served and
# every byte right. The bound was 1.25 until those medians left a quarter
# of it unused.
# `tests/observation.rs` is the deterministic guard on which reads carry the
# clock, and the layout assertions in `metadata.rs` and the gate's tests on
# what a hit shares; this keeps the cost from coming back some other way.
# Reads the benchmark's result line only.
run_hit() {
    echo "==> benchmark warm_rand_4k: overhead_ratio <= 1.0"
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload warm_rand_4k --seed 7 --seconds 3 --trace 0 \
        | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
ratio = r["metrics"]["overhead_ratio"]["value"]
assert r["correct"] is True, "hit: wrong bytes"
assert r["failed"] == 0, "hit: %d reads failed" % r["failed"]
assert ratio <= 1.0, "hit: overhead_ratio %.3f > 1.0" % ratio
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
# hot-set contention scenario), and a `monarch snapshot --section policy`
# CLI smoke.
run_policy() {
    echo "==> cargo test -p monarch-core --lib policy targets"
    cargo test -p monarch-core --lib -q policy
    echo "==> cargo test -p monarch-core --test proptests eviction invariants"
    cargo test -p monarch-core --test proptests -q -- \
        eviction_never_selects lru_victim
    echo "==> cargo test -p dlpipe sim policy ablations"
    cargo test -p dlpipe --lib -q -- eviction_policies_beat_first_fit \
        hot_set_contention policy_runs_are_deterministic
    echo "==> monarch snapshot --section policy smoke"
    local tmp
    fixture
    cargo run -q -p monarch-cli -- snapshot \
        --config "$tmp/cfg.json" --section policy --policy learned > "$tmp/policy.json"
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
# deterministic sim outage scenario, and a `monarch snapshot --section
# health` CLI smoke.
run_chaos() {
    echo "==> cargo test -p monarch-core fault/quarantine/probe targets"
    cargo test -p monarch-core --lib -q -- transient_read_fault \
        permanent_read_fault half_open_probe enospc_install \
        flaky_driver quarantined_tier
    echo "==> cargo test -p monarch --test chaos_e2e -q"
    cargo test -p monarch --test chaos_e2e -q
    echo "==> cargo test -p dlpipe sim outage targets"
    cargo test -p dlpipe --lib -q -- ssd_outage no_op_fault_plan
    echo "==> monarch snapshot --section health smoke"
    local tmp
    fixture
    cargo run -q -p monarch-cli -- snapshot --config "$tmp/cfg.json" --section health \
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

# Model-behaviour gate: regenerate the fixed-seed figures `sim_epoch` and
# `chaos_outage` and compare them with results/ byte for byte, then check
# the shape the paper's claims rest on. Virtual time and deterministic, so
# any drift, in either direction and of any size, is a change in what the
# model *does*: a deliberate one commits the regenerated figure. Not how
# fast the code runs; wall-clock performance is BENCHMARK.json's, measured
# on alternating parent/change pairs.
run_model() {
    echo "==> model gate: results/sim_epoch.json and chaos_outage.json, byte for byte"
    cargo test -q -p monarch-bench --lib pinned_figures
}

# Exporter smoke: start `monarch serve` on an ephemeral port against a
# generated dataset, scrape every endpoint, and check the Prometheus text
# carries the gauge/histogram/counter families and the snapshot is the
# version-2 document with its policy section and no residency timeline.
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
assert s["schema_version"] == 2, "serve smoke: schema_version %r" % s.get("schema_version")
for key in ("stats", "gauges", "health", "policy"):
    assert key in s, "serve smoke: /snapshot lacks %s" % key
assert "timeline" not in s.get("observe", {}), "serve smoke: /snapshot has observe.timeline"
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
    stall) run_stall ;;
    locks) run_locks ;;
    test) run_test ;;
    asan) run_asan ;;
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
        run_stall
        run_locks
        run_test
        run_asan
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
        echo "usage: scripts/check.sh [fmt|clippy|size|lifecycle|stall|locks|test|asan|benchapi|cold|hit|trace|prefetch|policy|report|cluster|chaos|serve|model|all]" >&2
        exit 2
        ;;
esac

echo "OK"
