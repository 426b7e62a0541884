#!/bin/sh
# Repo-wide verification: vet, build, and the full test suite under
# the race detector. The engine worker pool and its LRU caches are the
# repo's first seriously concurrent code paths, so -race is mandatory
# here even though it slows the run down.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

# Formatting gate over every tracked Go file (bench/ included; build
# output under ignored directories is not looked at): any file gofmt
# would rewrite fails the check.
echo "== gofmt -l =="
unformatted="$(git ls-files -z '*.go' | xargs -0 gofmt -l)"
if [ -n "$unformatted" ]; then
    echo "gofmt: these files are not formatted:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build =="
go build ./...

# Flag ratchet: proxserve's command-line surface may shrink, never
# grow. The ceiling is the count today; a change that deletes a flag
# lowers it to the new count in the same change.
echo "== proxserve flag ratchet =="
max_flags=25
flagbin="$(mktemp)"
go build -o "$flagbin" ./cmd/proxserve
nflags="$("$flagbin" -h 2>&1 | grep -c '^  -' || true)"
rm -f "$flagbin"
if [ "$nflags" -gt "$max_flags" ]; then
    echo "proxserve lists $nflags flags in -h, more than the ceiling of $max_flags" >&2
    exit 1
fi
echo "proxserve: $nflags flags (ceiling $max_flags)"

echo "== go test -race =="
go test -race ./...

# The root package's differential tests take ~0.05 s each; ten runs
# catch an assertion that depends on worker timing (PR 19 left
# TestShardedPairDifferential failing three runs in four, and one run
# of the suite above passes a test like that one time in four).
echo "== root differentials x10 =="
go test -race -count=10 -run Differential .

# The load harness under bench/ is a module of its own (BENCHMARK.json
# builds it from there), so nothing above compiles it: vet and
# self-test it here, or an engine API change breaks the benchmark
# unnoticed.
echo "== bench/ harness: go vet + go test =="
(cd bench && go vet ./... && go test ./...)

# Chaos gate: the same engine tests plus the fault-injection harness,
# with the injection sites armed by the faultinject build tag, still
# under -race. Injected kernel panics, corrupt decodes, latency, and
# cache-miss storms must never crash, race, or mis-score a document —
# on the single engine and through the sharded scatter-gather tier
# (the plain -race run above already covers the shard differential;
# this arms the injection sites on top). The remote package adds the
# network fault sites: latency, dropped connections, 500s, and
# truncated response bytes against a real HTTP fleet.
echo "== go test -race -tags faultinject (chaos) =="
go test -race -tags faultinject ./internal/faultinject/ ./internal/engine/ ./internal/shard/ ./internal/remote/

# Allocation ceiling: the warm-cache query path must stay under a
# fixed allocs/op budget (testing.AllocsPerRun inside the test), with
# the unwrapped kernel and with the valid-matchset kernel proxserve
# serves, and that kernel on its own must allocate nothing per document
# however many duplicated tokens it has to split on — nor must a WIN or
# MED kernel armed with a floor, bare or wrapped, whether its window
# screen cuts the document or lets it through. Run without -race — the
# race runtime adds allocations of its own and would make the ceilings
# meaningless.
echo "== cached-path allocation ceiling =="
go test -count=1 -run TestEngineCachedAllocCeiling ./internal/engine/
go test -count=1 -run 'TestValidKernelZeroAlloc|TestArmedKernelZeroAlloc' ./internal/dedup/

# Known-vulnerability scan, when the tool is installed (the CI image
# may not ship it; the gate must not fail on a missing scanner).
if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck =="
    govulncheck ./...
else
    echo "== govulncheck not installed; skipping =="
fi

# Coverage gate: the packages carrying the pruning machinery and the
# decode/coalescing hot path must not silently lose test coverage.
# Floors are measured-minus-two at the time each floor was recorded
# (engine 94.2% after the flat decode, the doc-max metadata codec and
# the legacy file shape were deleted; index 91.6% once group-varint with
# its wide escape became the only block codec; scorefn 92.3%, shard
# 98.7%; join 94.6% once the window screen read the unmerged lists);
# raise them when coverage rises.
echo "== coverage floors =="
check_cover() {
    pkg="$1"
    floor="$2"
    pct="$(go test -count=1 -cover "$pkg" | awk '{
        for (i = 1; i <= NF; i++)
            if ($i == "coverage:") { sub(/%$/, "", $(i + 1)); print $(i + 1) }
    }')"
    if [ -z "$pct" ]; then
        echo "coverage: no figure reported for $pkg" >&2
        exit 1
    fi
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
        echo "coverage: $pkg at ${pct}% is below the ${floor}% floor" >&2
        exit 1
    fi
    echo "coverage: $pkg ${pct}% (floor ${floor}%)"
}
check_cover ./internal/engine/  92.2
check_cover ./internal/scorefn/ 90.3
check_cover ./internal/index/   89.6
check_cover ./internal/shard/   97.1
check_cover ./internal/remote/  80.6
check_cover ./internal/join/    92.6

# End-to-end smoke of the networked shard tier: two real shard
# processes and a coordinator, queried through a rolling restart with
# zero tolerated failures (skips itself when curl/wget are missing).
echo "== remote fleet smoke =="
./scripts/smoke_remote.sh

# Optional: refresh BENCH_engine.json (slow; off by default so the
# gate stays fast). Enable with CHECK_BENCH=1 make check.
if [ "${CHECK_BENCH:-0}" = "1" ]; then
    ./scripts/benchjson.sh
fi

echo "check: OK"
