#!/bin/sh
# Run the engine benchmarks with -benchmem and write BENCH_engine.json:
# one record per benchmark with ns/op, B/op, and allocs/op. Benchmarks
# run with -count=3 and every metric is reduced to its per-benchmark
# median before JSON emission and before the regression gate, so one
# noisy run on a shared host cannot fake (or mask) a regression. When
# BENCH_engine.baseline.txt exists (raw `go test -bench` output saved
# before a performance change), its numbers are embedded as "baseline"
# so the JSON carries the before/after comparison in one file; the
# medianizer is generic over run count, so a single-run baseline file
# still parses.
#
# Usage: scripts/benchjson.sh [benchtime]   (default 100x; the
# admission-control benchmark needs enough iterations to saturate its
# in-flight cap, or shed/op reads as zero)
#
# BENCH_SAVE_BASELINE=1 rewrites BENCH_engine.baseline.txt from this
# run's medians first, so the 1.25x gate measures later commits against
# this one across every benchmark that exists today.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-100x}"
COUNT="${BENCH_COUNT:-3}"
RAW="$(mktemp)"
MED="$(mktemp)"
MEDBASE="$(mktemp)"
trap 'rm -f "$RAW" "$MED" "$MEDBASE"' EXIT

echo "== go test -bench=BenchmarkEngine -benchmem (benchtime=$BENCHTIME, count=$COUNT) =="
go test -run='^$' -bench='BenchmarkEngine' -benchmem -benchtime="$BENCHTIME" -count="$COUNT" . | tee "$RAW"

# Reduce repeated benchmark lines to one line per benchmark carrying
# the per-metric median, preserving the value/unit pair layout of
# `go test -bench` output so the JSON parser and the regression gate
# read medianized files exactly like raw ones. Works for any -count,
# including a count=1 baseline file (median of one value is itself).
medianize() {
    awk '
    function median(name, u,    k, i, j, tmp, cnt) {
        cnt = runs[name]
        for (i = 1; i <= cnt; i++) sortbuf[i] = vals[name, u, i] + 0
        for (i = 2; i <= cnt; i++) {          # insertion sort: cnt is tiny
            tmp = sortbuf[i]
            for (j = i - 1; j >= 1 && sortbuf[j] > tmp; j--) sortbuf[j + 1] = sortbuf[j]
            sortbuf[j + 1] = tmp
        }
        if (cnt % 2) return sortbuf[(cnt + 1) / 2]
        return (sortbuf[cnt / 2] + sortbuf[cnt / 2 + 1]) / 2
    }
    /^Benchmark/ && $2 ~ /^[0-9]+$/ {
        name = $1
        if (!(name in runs)) order[++n] = name
        runs[name]++
        u = 0
        for (i = 3; i + 1 <= NF; i += 2) {
            u++
            unit[name, u] = $(i + 1)
            vals[name, u, runs[name]] = $i
        }
        nunits[name] = u
    }
    END {
        for (k = 1; k <= n; k++) {
            name = order[k]
            line = name " 1"
            for (u = 1; u <= nunits[name]; u++)
                line = line sprintf(" %g %s", median(name, u), unit[name, u])
            print line
        }
    }
    ' "$1"
}

# The served join kernel on its own (the duplicate-avoidance wrapper
# over a reused WIN/MED kernel at 0/25/60 % duplicate frequency): ns,
# allocs — 0 at every frequency — and invocations per join, the paper's
# Figure 8 metric, each also with the kernel floor armed at the
# instance set's median root optimum. A join is microseconds, so these
# run a fixed 20000x.
echo "== go test -bench=BenchmarkValidKernel -benchmem (benchtime=20000x, count=$COUNT) =="
go test -run='^$' -bench='BenchmarkValidKernel' -benchmem -benchtime=20000x -count="$COUNT" ./internal/join/ | tee -a "$RAW"

# The window screen on its own: one armed WIN/MED join at three and
# five terms on a document the screen cuts before any merge (/cut) and
# on one it lets through to the merge and the program (/pass); 0
# allocs/op for both.
echo "== go test -bench=BenchmarkWindowScreen -benchmem (benchtime=20000x, count=$COUNT) =="
go test -run='^$' -bench='BenchmarkWindowScreen' -benchmem -benchtime=20000x -count="$COUNT" ./internal/join/ | tee -a "$RAW"

medianize "$RAW" > "$MED"
if [ "${BENCH_SAVE_BASELINE:-}" = "1" ]; then
    # Provenance first (the parsers read only ^Benchmark lines; a -N
    # name suffix is GOMAXPROCS), then one medianized line per benchmark.
    { go version; grep -m1 '^cpu:' "$RAW"; cat "$MED"; } > BENCH_engine.baseline.txt
    echo "rewrote BENCH_engine.baseline.txt from this run's medians"
fi

# Parse `BenchmarkName  N  X ns/op  Y B/op  Z allocs/op` lines to JSON.
# Custom b.ReportMetric units ride along when present: pruneddocs/op,
# joins/op and qualifying/op (the documents an exhaustive walk would
# join, so the pruning win reads against it) from the pruning and
# union benchmarks, shed/op from the admission control benchmark,
# and blocksskipped/op + blockdecodes/op from the
# cold benchmark (the block-max skip layer's decode-avoidance rate),
# and pivotskips/op + unioncandidates/op from the disjunctive union
# benchmark (the WAND layer's skip rate), and shardqueries/op +
# mergedcandidates/op from the sharded scatter-gather benchmark (the
# fan-out cost and rank-merge width), and coalesceddecodes/op +
# decodewaits/op from the concurrent-query coalescing benchmark (how
# many duplicate decodes the singleflight layer collapsed), and
# hedged/op + retried/op from the remote fleet benchmark (speculative
# and repeated shard attempts: ~0 on a healthy loopback fleet, so
# drift flags a latency regression or transport flakiness), and
# pairhits/op from the pair-index benchmark (the auxiliary pair tier's
# list hits), and invocations/op from the valid-kernel benchmark
# (inner-kernel runs per join: the duplicate-avoidance search's width,
# floorless and under a median floor) and, next to joins/op, from the
# cached engine rows (per query: their quotient is what /stats shows
# as KernelInvocations/JoinsRun).
# The cached BenchmarkEngine path doubles as the panic-recovery
# overhead gauge — the recover() wrappers sit on every join, so any
# regression shows up directly against the baseline (the budget is <1%).
bench_to_json() {
    awk '
    /^Benchmark/ {
        name = $1
        ns = bytes = allocs = pruned = joins = qual = shed = bskip = bdec = pskip = ucand = shq = mcand = codec = dwait = hedged = retried = phits = invs = ""
        for (i = 2; i <= NF; i++) {
            if ($i == "ns/op")             ns = $(i - 1)
            if ($i == "B/op")              bytes = $(i - 1)
            if ($i == "allocs/op")         allocs = $(i - 1)
            if ($i == "pruneddocs/op")     pruned = $(i - 1)
            if ($i == "joins/op")          joins = $(i - 1)
            if ($i == "qualifying/op")     qual = $(i - 1)
            if ($i == "shed/op")           shed = $(i - 1)
            if ($i == "blocksskipped/op")  bskip = $(i - 1)
            if ($i == "blockdecodes/op")   bdec = $(i - 1)
            if ($i == "pivotskips/op")     pskip = $(i - 1)
            if ($i == "unioncandidates/op") ucand = $(i - 1)
            if ($i == "shardqueries/op")    shq = $(i - 1)
            if ($i == "mergedcandidates/op") mcand = $(i - 1)
            if ($i == "coalesceddecodes/op") codec = $(i - 1)
            if ($i == "decodewaits/op")      dwait = $(i - 1)
            if ($i == "hedged/op")           hedged = $(i - 1)
            if ($i == "retried/op")          retried = $(i - 1)
            if ($i == "pairhits/op")         phits = $(i - 1)
            if ($i == "invocations/op")      invs = $(i - 1)
        }
        if (ns == "") next
        if (out != "") out = out ","
        rec = sprintf("\n    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s",
                      name, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs)
        if (pruned != "") rec = rec sprintf(", \"pruneddocs_per_op\": %s", pruned)
        if (joins != "")  rec = rec sprintf(", \"joins_per_op\": %s", joins)
        if (qual != "")   rec = rec sprintf(", \"qualifying_per_op\": %s", qual)
        if (shed != "")   rec = rec sprintf(", \"shed_per_op\": %s", shed)
        if (bskip != "")  rec = rec sprintf(", \"blocksskipped_per_op\": %s", bskip)
        if (bdec != "")   rec = rec sprintf(", \"blockdecodes_per_op\": %s", bdec)
        if (pskip != "")  rec = rec sprintf(", \"pivotskips_per_op\": %s", pskip)
        if (ucand != "")  rec = rec sprintf(", \"unioncandidates_per_op\": %s", ucand)
        if (shq != "")    rec = rec sprintf(", \"shardqueries_per_op\": %s", shq)
        if (mcand != "")  rec = rec sprintf(", \"mergedcandidates_per_op\": %s", mcand)
        if (codec != "")  rec = rec sprintf(", \"coalesceddecodes_per_op\": %s", codec)
        if (dwait != "")  rec = rec sprintf(", \"decodewaits_per_op\": %s", dwait)
        if (hedged != "")  rec = rec sprintf(", \"hedged_per_op\": %s", hedged)
        if (retried != "") rec = rec sprintf(", \"retried_per_op\": %s", retried)
        if (phits != "")   rec = rec sprintf(", \"pairhits_per_op\": %s", phits)
        if (invs != "")    rec = rec sprintf(", \"invocations_per_op\": %s", invs)
        out = out rec "}"
    }
    END { printf "[%s\n  ]", out }
    ' "$1"
}

{
    printf '{\n  "benchmarks": '
    bench_to_json "$MED"
    if [ -f BENCH_engine.baseline.txt ]; then
        medianize BENCH_engine.baseline.txt > "$MEDBASE"
        printf ',\n  "baseline": '
        bench_to_json "$MEDBASE"
    fi
    printf '\n}\n'
} > BENCH_engine.json

echo "wrote BENCH_engine.json"

# Warm-path regression gate: the cached BenchmarkEngineColdVsCached
# run must stay within 1.25x of the saved baseline's ns/op. Both sides
# are medians (count=3 current vs whatever count the baseline holds),
# so a single outlier run cannot trip or hide the gate; the 1.25x
# slack absorbs what noise survives the median on a shared host — a
# real regression (e.g. losing the keyed join kernel or the coalesced
# cache hit) is 1.5x or more. Informational on manual runs; fatal
# under CHECK_BENCH=1 so scripts/check.sh turns it into a CI failure.
cached_ns() {
    awk 'index($1, "BenchmarkEngineColdVsCached/cached") == 1 {
        for (i = 2; i <= NF; i++) if ($i == "ns/op") { print $(i - 1); exit }
    }' "$1"
}
if [ -f BENCH_engine.baseline.txt ]; then
    cur="$(cached_ns "$MED")"
    base="$(cached_ns "$MEDBASE")"
    if [ -n "$cur" ] && [ -n "$base" ]; then
        if awk -v c="$cur" -v b="$base" 'BEGIN { exit !(c > b * 1.25) }'; then
            echo "WARM-PATH REGRESSION: cached query $cur ns/op vs baseline $base ns/op (limit 1.25x, medians)"
            if [ "${CHECK_BENCH:-}" = "1" ]; then
                exit 1
            fi
        else
            echo "warm path ok: cached query $cur ns/op vs baseline $base ns/op (limit 1.25x, medians)"
        fi
    fi
fi
