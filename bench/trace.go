package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the harness's side
// of the boundary. Spans of one request share Request; Parent is the
// span that caused this one (-1 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"` // "<layer>.<call>"
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. It is used from one
// goroutine only: the traced pass runs at concurrency 1. A nil tracer
// records nothing, which is how the untraced replay runs.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Request: request, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// add records a span whose interval was measured elsewhere (the server
// reports Result.Elapsed, not when it started).
func (t *tracer) add(name string, parent, request int, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Request: request, Name: name, Start: start, End: end})
}

// selfTime is one span name's totals.
type selfTime struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// selfTimes computes per span name the total duration and the self
// time: a span's duration minus the part of its interval that its child
// spans cover (children clipped to the parent and merged where they
// overlap).
func selfTimes(spans []span) []selfTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		st.Count++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - covered)
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
