# Convenience targets; `make check` is the gate every change must pass.

.PHONY: check test cover bench bench-json fuzz chaos smoke-remote profile

check:
	./scripts/check.sh

test:
	go test ./...

# Per-package statement coverage; scripts/check.sh enforces floors on
# the engine, scorefn, and index packages.
cover:
	go test -count=1 -cover ./...

bench:
	go test -bench=. -benchmem ./...

# Engine benchmarks with -benchmem, parsed into BENCH_engine.json
# (ns/op, B/op, allocs/op per benchmark; the saved pre-refactor
# baseline is embedded when BENCH_engine.baseline.txt exists).
bench-json:
	./scripts/benchjson.sh

# Short fuzz passes over the untrusted-bytes decode paths.
fuzz:
	go test -run=Fuzz -fuzz=FuzzDecode -fuzztime=30s ./internal/match/
	go test -run=Fuzz -fuzz=FuzzDecodePostings -fuzztime=30s ./internal/index/
	go test -run=Fuzz -fuzz=FuzzLoadCompact -fuzztime=30s ./internal/index/
	go test -run=Fuzz -fuzz=FuzzLoadFile -fuzztime=30s ./internal/index/
	go test -run=Fuzz -fuzz=FuzzDecodeBlocks -fuzztime=30s ./internal/index/
	go test -run=Fuzz -fuzz=FuzzDecodeBatch -fuzztime=30s ./internal/index/
	go test -run=Fuzz -fuzz=FuzzBlockDocs -fuzztime=30s ./internal/index/
	go test -run=Fuzz -fuzz=FuzzDecodePairs -fuzztime=30s ./internal/index/

# CPU and heap profiles of the cold/cached engine benchmark, for
# digging into the block-max skip layer with `go tool pprof cpu.prof`
# (or heap.prof). Profiles land in the repo root and are gitignored.
profile:
	go test -run='^$$' -bench=BenchmarkEngineColdVsCached -benchmem \
		-cpuprofile=cpu.prof -memprofile=heap.prof .
	@echo "wrote cpu.prof and heap.prof; inspect with: go tool pprof cpu.prof"

# Fault-injection chaos suite: the faultinject build tag arms the
# injection sites, and -race proves the recovery paths (kernel
# rebuild, degraded decode, cache repopulation) are data-race-free.
# scripts/check.sh runs this too; the target exists for quick local
# iteration on the fault-tolerance layer.
chaos:
	go test -race -tags faultinject ./internal/faultinject/ ./internal/engine/ ./internal/shard/ ./internal/remote/

# End-to-end smoke of the networked shard tier: builds proxserve,
# starts two shard processes and a coordinator, and rolls the shards
# under query load — zero failed queries tolerated. scripts/check.sh
# runs this too; the target exists for quick local iteration.
smoke-remote:
	./scripts/smoke_remote.sh
