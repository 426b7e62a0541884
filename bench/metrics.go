package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported number. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the harness reads. The file is
// the only place the metric tables, the run length and the reason for
// each workload are written down.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// specPath is BENCHMARK.json as seen from bench/, where run.sh, go run
// and go test all run the harness.
const specPath = "../BENCHMARK.json"

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s names %d workloads, the harness defines %d", path, len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].Name {
			return nil, fmt.Errorf("%s: workload %d is %q, the harness defines %q", path, i, w.Name, workloads[i].Name)
		}
	}
	return &s, nil
}

// why returns the reason BENCHMARK.json records for a workload.
func (s *benchSpec) why(workload string) string {
	for _, w := range s.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}
