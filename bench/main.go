// Command bench is the repository's benchmark: an open-loop HTTP load
// harness over real cmd/proxserve processes. It generates a seeded
// corpus and query streams, builds and saves an index with the library,
// starts proxserve on it (one process, or coordinator + 2 shards),
// drives it over HTTP, checks every answer, and in a separate traced
// pass times each layer's exported entry points on the workload's own
// data. See README.md for the metrics and workloads.
//
//	bash bench/run.sh --seed 1                       # all four workloads, tables + bench/out/*.json
//	bash bench/run.sh --seed 1 --repeat 2            # twice; fails when a metric moves beyond its bound
//	bash bench/run.sh --workload warm_and --seed 1 --seconds 20 --trace 0   # one run, BENCHMARK.json contract
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// outDir holds the trace and summary JSON, beside the harness.
const outDir = "out"

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the BENCHMARK.json result line (default: all four, with tables)")
		seed         = flag.Int64("seed", 1, "seed for the corpus, the query lists and the request stream")
		seconds      = flag.Float64("seconds", 0, "measured seconds per workload: a quarter closed loop, three quarters open loop (default: BENCHMARK.json's run_seconds)")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 adds the traced pass and prints the per-layer metrics")
		repeat       = flag.Int("repeat", 1, "run the full set this many times and fail when an end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace == 1, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds float64, trace bool, repeat int) (err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if seconds == 0 {
		seconds = float64(spec.RunSeconds)
	}

	// SIGINT/SIGTERM cancel the context; every exit path below then
	// stops the children and removes the temp dir through the defers.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir, err := os.MkdirTemp("", "proxload-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	proxserve := filepath.Join(dir, "proxserve")
	if out, err := exec.CommandContext(ctx, "go", "build", "-o", proxserve, "bestjoin/cmd/proxserve").CombinedOutput(); err != nil {
		return fmt.Errorf("build proxserve: %w\n%s", err, out)
	}
	e := &env{spec: spec, bin: proxserve, dir: dir, outDir: outDir, seed: seed, seconds: seconds, trace: trace,
		conns: runtime.NumCPU(), log: os.Stderr}
	e.prov = provenanceOf(e)

	if workloadName != "" {
		w := workloadByName(workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		if e.ds, err = buildDataset(seed, defaultDocs, filepath.Join(dir, "index.bin")); err != nil {
			return err
		}
		r, err := e.runWorkload(ctx, w)
		if err != nil {
			return err
		}
		printWorkload(os.Stderr, e, r)
		// A rate the server did not sustain is not a result. A late
		// generator is only flagged (printWorkload, send_lag_p99_ms): lag is
		// charged to latency, so it can make this run look worse, never
		// better, and the driver reads medians over ten runs — on the
		// reference host one run in sixteen is late through no fault of the
		// server, and failing it would fail every 92-run acceptance.
		if r.Unsustained {
			return fmt.Errorf("%s: invalid run: %s", w.Name, strings.Join(r.Invalid, "; "))
		}
		return printContractLine(os.Stdout, spec, r, trace)
	}

	e.trace = true
	var sets [][]*result
	for i := 0; i < repeat; i++ {
		if e.ds, err = buildDataset(seed, defaultDocs, filepath.Join(dir, "index.bin")); err != nil {
			return err
		}
		var set []*result
		for _, w := range workloads {
			r, err := e.runWorkload(ctx, w)
			if err != nil {
				return err
			}
			printWorkload(os.Stdout, e, r)
			set = append(set, r)
		}
		sets = append(sets, set)
	}
	return summarize(e, sets)
}

// provenance is recorded in every output.
type provenance struct {
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Time       string  `json:"time"`
}

func provenanceOf(e *env) provenance {
	host, _ := os.Hostname() // an unnamed host is still a host
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return provenance{Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: commit, Seed: e.seed, Seconds: e.seconds, Time: time.Now().UTC().Format(time.RFC3339)}
}

// printContractLine prints the one JSON object BENCHMARK.json's driver
// reads from the last line of standard output: every declared metric
// of the asked kind, and nothing that is not declared.
func printContractLine(out io.Writer, spec *benchSpec, r *result, trace bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := spec.EndToEnd, r.EndToEnd
	if trace {
		defs, values = spec.PerLayer, r.PerLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, found := values[d.Name]
		if !found {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	for name := range values {
		if _, declared := metrics[name]; !declared {
			return fmt.Errorf("metric %s is measured but %s does not declare it", name, specPath)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// summarize writes bench/out/summary.json, compares repeated sets and
// enforces what the full run promises: no failed request, a valid
// generator, repeats within bounds.
func summarize(e *env, sets [][]*result) error {
	var problems []string
	for _, set := range sets {
		for _, r := range set {
			if r.Failed > 0 {
				problems = append(problems, fmt.Sprintf("%s: %d of %d failed", r.Workload, r.Failed, r.Attempted))
			}
			for _, why := range r.Invalid {
				problems = append(problems, fmt.Sprintf("%s: invalid run: %s", r.Workload, why))
			}
		}
		problems = append(problems, compareStreams(set)...)
	}
	problems = append(problems, compareRepeats(os.Stdout, e.spec.EndToEnd, sets)...)
	// Field order is the output's: both end with "claim": null, because
	// this benchmark measures and claims nothing.
	summary := struct {
		Provenance    provenance  `json:"provenance"`
		EndToEnd      []metricDef `json:"end_to_end"`
		PerLayer      []metricDef `json:"per_layer"`
		MaxLagP99MS   float64     `json:"valid_if_send_lag_p99_ms_at_most"`
		MaxBacklogPct float64     `json:"valid_if_backlog_pct_at_most"`
		Runs          [][]*result `json:"runs"`
		Problems      []string    `json:"problems"`
		Claim         *string     `json:"claim"`
	}{e.prov, e.spec.EndToEnd, e.spec.PerLayer, float64(maxLagP99) / float64(time.Millisecond),
		maxBacklogShare * 100, sets, problems, nil}
	path := filepath.Join(e.outDir, "summary.json")
	if err := writeJSON(path, summary); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Summary  string   `json:"summary"`
		Repeats  int      `json:"repeats"`
		Problems []string `json:"problems"`
		Claim    *string  `json:"claim"`
	}{path, len(sets), problems, nil})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}
