#!/usr/bin/env bash
# Alternating A/B runs of one benchmark workload: a parent revision against
# the working tree.
#
#   scripts/ab.sh PARENT_REV WORKLOAD SEED PAIRS
#
# Builds the benchmark (`benchmark/`, see BENCHMARK.json) offline twice:
# from PARENT_REV, extracted under target/ab/parent, and from a copy of the
# working tree (tracked and untracked files, not ignored ones) under
# target/ab/change. Nothing under benchmark/ is built or edited in place.
# Then it runs PAIRS pairs of
#
#   --workload WORKLOAD --seed SEED --seconds $AB_SECONDS --trace 0
#
# (AB_SECONDS defaults to 25, BENCHMARK.json's run_seconds), swapping which
# half runs first on every pair, because the machine drifts between runs
# and only neighbouring runs compare. It prints every pair's end-to-end
# values, then per metric both halves' medians and quartiles and how many
# pairs the change won. Each run's result line is kept in
# target/ab/WORKLOAD-SEED.jsonl. A run that fails or reads wrong bytes
# stops the script.
set -euo pipefail

if [[ $# -ne 4 ]]; then
    echo "usage: scripts/ab.sh PARENT_REV WORKLOAD SEED PAIRS" >&2
    exit 2
fi
parent_rev=$1 workload=$2 seed=$3 pairs=$4
seconds=${AB_SECONDS:-25}

root=$(git rev-parse --show-toplevel)
ab=$root/target/ab
mkdir -p "$ab"

# Build the benchmark of the tree extracted into $ab/$1. The trees are
# extracted afresh on every call, the build directories beside them are
# kept, so rebuilds are incremental.
build() {
    local side=$1
    echo "==> building the $side benchmark" >&2
    CARGO_TARGET_DIR=$ab/$side.target cargo build --release --offline --quiet \
        --manifest-path "$ab/$side/benchmark/Cargo.toml"
}
rev=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
# `git archive` stamps every file with the commit's time. Going back to an
# older revision would leave the sources older than the last build, and
# cargo would keep that build: a parent build directory serves one
# revision.
if [[ $(cat "$ab/parent.rev" 2>/dev/null) != "$rev" ]]; then
    rm -rf "$ab/parent.target"
    echo "$rev" >"$ab/parent.rev"
fi
rm -rf "$ab/parent" "$ab/change"
mkdir -p "$ab/parent" "$ab/change"
git -C "$root" archive "$rev" | tar -x -C "$ab/parent"
(cd "$root" && git ls-files -z -co --exclude-standard | tar --null --ignore-failed-read -T - -c) | tar -x -C "$ab/change"
build parent
build change

# Six significant digits.
sig='def sig: if . == 0 then 0 else (fabs | log10 | floor) as $e | pow(10; 5 - $e) as $k | (. * $k | round) / $k end;'
log=$ab/$workload-$seed.jsonl
: >"$log"
# One run; appends {"side", "pair", <result>} to the log.
run() {
    local side=$1 pair=$2 out
    out=$("$ab/$side.target/release/monarch-benchmark" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    if ! jq -e '.correct and .failed == 0' <<<"$out" >/dev/null; then
        echo "$side run of pair $pair failed: $out" >&2
        exit 1
    fi
    jq -c --arg side "$side" --argjson pair "$pair" \
        '{side: $side, pair: $pair} + .' <<<"$out" >>"$log"
}

echo "==> $pairs pairs of $workload, seed $seed, ${seconds} s runs" >&2
for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then
        run parent "$pair"
        run change "$pair"
    else
        run change "$pair"
        run parent "$pair"
    fi
    jq -rs --argjson pair "$pair" "$sig"'
        map(select(.pair == $pair)) as $runs
        | ($runs | map(select(.side == "parent"))[0].metrics) as $p
        | ($runs | map(select(.side == "change"))[0].metrics) as $c
        | "pair \($pair) (\(if $pair % 2 == 1 then "parent" else "change" end) first): "
          + ([$p | keys_unsorted[] | "\(.) \($p[.].value | sig) -> \($c[.].value | sig)"] | join(", "))
    ' "$log"
done

# Medians, quartiles (linear interpolation) and wins, by BENCHMARK.json's
# end-to-end metrics and the direction each is better in.
jq -rn --slurpfile runs "$log" --slurpfile spec "$root/BENCHMARK.json" "$sig"'
    def q(p): sort as $s | ($s | length - 1) as $n | (p * $n) as $r | ($r | floor) as $i
        | $s[$i] + ($r - $i) * ($s[[$i + 1, $n] | min] - $s[$i]);
    $runs as $all
    | ($all | map(.pair) | unique) as $pairs
    | $spec[0].end_to_end[]
    | .name as $m | .better as $better
    | [$pairs[] as $k | $all | map(select(.pair == $k)) as $r
        | [($r[] | select(.side == "parent") | .metrics[$m].value),
           ($r[] | select(.side == "change") | .metrics[$m].value)]] as $v
    | ($v | map(.[0])) as $p | ($v | map(.[1])) as $c
    | ($v | map(select(if $better == "lower" then .[1] < .[0] else .[1] > .[0] end)) | length) as $wins
    | "\($m) (\($better) is better): parent median \($p | q(0.5) | sig) [q1 \($p | q(0.25) | sig), q3 \($p | q(0.75) | sig)]"
      + " -> change \($c | q(0.5) | sig) [q1 \($c | q(0.25) | sig), q3 \($c | q(0.75) | sig)]; change wins \($wins)/\($v | length)"
'
