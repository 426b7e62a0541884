#!/bin/sh
# Repo-wide verification: vet, build, and the full test suite under
# the race detector. The engine worker pool and the index's first-use
# stem decodes are the repo's most concurrent code paths, so -race is
# mandatory here even though it slows the run down.
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
max_flags=18
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

# TestDifferential, the one differential matrix, in its -short form
# (every axis value at least once); ten runs catch an assertion that
# depends on worker timing, which one run of the suite above passes
# now and then.
echo "== root differentials x10 =="
go test -race -short -count=10 -run TestDifferential .

# The parallel walk, twenty times: ties straddling the boundaries of the
# walkers' id ranges, a deadline firing mid-range while helper walkers
# join, and every walker's tally merged into its query's. An assertion
# that depends on how the walkers interleave shows up here, where one
# run of the suite above passes it now and then. (About 30 s on a
# 2-core host.) The same for the first uses of one concept racing to
# merge and keep its table.
echo "== walker and table-build tests x20 =="
go test -race -count=20 -run 'TestWalker|TestTallyQueryGranular' ./internal/engine/
go test -race -count=20 -run 'TestConceptTableRacingFirstUses' ./internal/index/

# The strictly-below rule, mutated in a copy of the tree: every place a
# bound is held against the k-th kept entry must fail a test when it
# prunes a tie it should not. The engine has no unpruned mode to grade
# against, so this is what shows the rule is still pinned.
echo "== mutants: the strictly-below rule =="
./scripts/mutants.sh

# The load harness under bench/ is a module of its own (BENCHMARK.json
# builds it from there), so nothing above compiles it: vet and
# self-test it here, or an engine API change breaks the benchmark
# unnoticed.
echo "== bench/ harness: go vet + go test =="
(cd bench && go vet ./... && go test ./...)

# Chaos gate: the same engine tests plus the fault-injection harness,
# with the injection sites armed by the faultinject build tag, still
# under -race. Injected kernel panics, corrupt stem decodes and decode
# latency must never crash, race, or mis-score a document —
# on the single engine and through the sharded scatter-gather tier
# (the plain -race run above already holds the coordinator to the
# reference ranker; this arms the injection sites on top). The remote
# package adds the network fault sites: latency, dropped connections,
# 500s, and truncated response bytes against a real HTTP fleet.
echo "== go test -race -tags faultinject (chaos) =="
go test -race -tags faultinject ./internal/faultinject/ ./internal/engine/ ./internal/shard/ ./internal/remote/

# Allocation ceiling: the warm-cache query path must stay under a
# fixed allocs/op budget (testing.AllocsPerRun inside the test), with
# the unwrapped kernel and with the valid-matchset kernel proxserve
# serves, and that kernel on its own must allocate nothing per document
# however many duplicated tokens it has to split on — nor must a WIN or
# MED kernel armed with a floor, bare or wrapped, whether its window
# screen cuts the document or lets it through, nor its cut width,
# remembered or searched for afresh. Run without -race — the
# race runtime adds allocations of its own and would make the ceilings
# meaningless.
echo "== cached-path allocation ceiling =="
go test -count=1 -run TestEngineCachedAllocCeiling ./internal/engine/
go test -count=1 -run 'TestValidKernelZeroAlloc|TestArmedKernelZeroAlloc' ./internal/dedup/
# The index build: once a document's words have all been seen, AddText
# averages below one allocation per call, and the tokenizer allocates
# nothing.
go test -count=1 -run TestAddTextAllocCeiling ./internal/index/
go test -count=1 -run TestScanLendsOneBuffer ./internal/text/

# The cache rung prunes a document before its join on a location
# signature and a memoized cut width: fuzz it against the exact window
# screen it stands in for (a rung cut must be a cut the armed kernel
# makes, and the cut width must be exact). A failing input lands in
# internal/join/testdata/fuzz/.
echo "== fuzz: cache rung vs window screen (10 s) =="
go test -run='^$' -fuzz=FuzzScreenRung -fuzztime=10s ./internal/join/

# The framed loader is the index's only decoder of bytes from disk or
# the wire (LoadFile, POST /swapindex): it must never panic, and must
# accept nothing unframed. A failing input lands in
# internal/index/testdata/fuzz/.
echo "== fuzz: framed index loader (10 s) =="
go test -run='^$' -fuzz=FuzzLoadCompact -fuzztime=10s ./internal/index/

# Known-vulnerability scan, when the tool is installed (the CI image
# may not ship it; the gate must not fail on a missing scanner).
if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck =="
    govulncheck ./...
else
    echo "== govulncheck not installed; skipping =="
fi

# Coverage gate: the packages carrying the pruning machinery and the
# stem decode hot path must not silently lose test coverage.
# Floors are measured-minus-two at the time each floor was recorded
# (engine 96.5% once every query ran the one candidate walk; index
# 96.0% once pair lists stopped being persisted; scorefn 93.9% with one
# cap checker per family; shard 98.7%; join 95.2% once the cache rung
# sat beside the window screen; text 97.3% once one scan loop fed both
# the tokenizer and the index build);
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
check_cover ./internal/engine/  94.5
check_cover ./internal/scorefn/ 91.9
check_cover ./internal/index/   94.0
check_cover ./internal/shard/   97.1
check_cover ./internal/remote/  80.6
check_cover ./internal/join/    93.2
check_cover ./internal/text/    95.3

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
