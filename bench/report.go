package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// printWorkload prints one workload's provenance, phase counts, every
// metric by name and unit, and (when traced) the attribution table.
func printWorkload(out io.Writer, e *env, r *result) {
	p := e.prov
	fmt.Fprintf(out, "\n== %s — %s\n", r.Workload, r.Why)
	fmt.Fprintf(out, "host %s  nproc %d  GOMAXPROCS %d  %s  commit %s  seed %d\n",
		p.Host, p.NProc, p.GOMAXPROCS, p.GoVersion, p.GitCommit, p.Seed)
	for _, c := range r.Commands {
		fmt.Fprintf(out, "  %s\n", c)
	}
	fmt.Fprintf(out, "closed loop %d clients %.1f s; open loop %.0f qps %.1f s over ≤%d connections, latency from due time, limit %.0f ms\n",
		r.Clients, r.ClosedSeconds, r.RateQPS, r.OpenSeconds, r.Clients, r.LimitMS)
	for _, pc := range r.Phases {
		fmt.Fprintf(out, "  %s\n", pc)
	}
	fmt.Fprintf(out, "failed_share %d/%d; open-loop samples %d (%d beyond p95, %d beyond p99)\n",
		r.Failed, r.Attempted, r.Samples, r.BeyondP95, r.BeyondP99)
	for _, why := range r.Invalid {
		fmt.Fprintf(out, "INVALID: %s\n", why)
	}
	for _, d := range e.spec.EndToEnd {
		fmt.Fprintf(out, "  %-38s %14.4f %-6s (%s is better, bound %.0f %%)\n", d.Name, r.EndToEnd[d.Name], d.Unit, d.Better, d.Bound*100)
	}
	if len(r.Attribution) == 0 {
		return
	}
	for _, d := range e.spec.PerLayer {
		fmt.Fprintf(out, "  %-38s %14.4f %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
	}
	fmt.Fprint(out, attributionTable(r))
}

// attributionTable sets the per-layer costs against the concurrency-1
// end-to-end mean, as a markdown table.
func attributionTable(r *result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n| %s: layer cost at concurrency 1 | µs | share |\n|---|---:|---:|\n", r.Workload)
	sum := 0.0
	for _, row := range r.Attribution {
		sum += row.US
		fmt.Fprintf(&b, "| %s | %.1f | %.1f %% |\n", row.Name, row.US, 100*ratio(row.US, r.C1MeanUS))
	}
	fmt.Fprintf(&b, "| sum of rows | %.1f | %.1f %% |\n", sum, 100*ratio(sum, r.C1MeanUS))
	fmt.Fprintf(&b, "| end-to-end mean (HTTP in → JSON out) | %.1f | 100 %% |\n", r.C1MeanUS)
	fmt.Fprintf(&b, "| residual | %.1f | %.1f %% |\n", r.C1MeanUS-sum, 100*ratio(r.C1MeanUS-sum, r.C1MeanUS))
	return b.String()
}

// compareStreams checks that workloads fed the identical stream
// (warm_and, remote_fleet) returned hash-identical answers.
func compareStreams(set []*result) []string {
	var single, fleet *result
	for _, r := range set {
		switch r.Workload {
		case "warm_and":
			single = r
		case "remote_fleet":
			fleet = r
		}
	}
	if single == nil || fleet == nil {
		return nil
	}
	var problems []string
	if len(single.Hashes) != len(fleet.Hashes) {
		problems = append(problems, fmt.Sprintf("warm_and answered %d distinct queries, remote_fleet %d", len(single.Hashes), len(fleet.Hashes)))
	}
	for key, h := range single.Hashes {
		if fleet.Hashes[key] != h {
			problems = append(problems, fmt.Sprintf("remote_fleet's answer to %s differs from warm_and's", key))
		}
	}
	return problems
}

// compareRepeats prints each end-to-end metric of each workload across
// the repeated sets with its spread, and reports those that differ by
// more than the metric's bound in either direction.
func compareRepeats(out io.Writer, endToEnd []metricDef, sets [][]*result) []string {
	if len(sets) < 2 {
		return nil
	}
	var problems []string
	fmt.Fprintf(out, "\n== repeats: every end-to-end metric across %d sets of the same build\n", len(sets))
	for w := range sets[0] {
		for _, d := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			var vals []string
			for _, set := range sets {
				v := set[w].EndToEnd[d.Name]
				lo, hi = min(lo, v), max(hi, v)
				vals = append(vals, fmt.Sprintf("%.4f", v))
			}
			spread := ratio(hi-lo, lo)
			verdict := "ok"
			if spread > d.Bound {
				verdict = "BEYOND BOUND"
				problems = append(problems, fmt.Sprintf("%s %s: repeats %s differ by %.1f %% > bound %.0f %%",
					sets[0][w].Workload, d.Name, strings.Join(vals, " / "), spread*100, d.Bound*100))
			}
			fmt.Fprintf(out, "  %-13s %-16s %-28s %-4s spread %5.1f %%  bound %3.0f %%  %s\n",
				sets[0][w].Workload, d.Name, strings.Join(vals, " / "), d.Unit, spread*100, d.Bound*100, verdict)
		}
	}
	return problems
}
