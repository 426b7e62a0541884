package main

import (
	"math/rand"
	"time"
)

// mixPart is one query class of a workload's stream, with how many
// slots of every round of requests it gets and how its tuples are sent.
type mixPart struct {
	Class string
	Slots int
	// Forms are the (mode, m) variants the class's tuples alternate
	// between; empty means plain AND.
	Forms []form
}

type form struct {
	Mode string
	M    int
}

// workload is one traffic mix against one server topology. Rates and
// server flags are frozen: they are the benchmark's definition and are
// the same on every commit.
type workload struct {
	Name   string // BENCHMARK.json says why each was chosen
	Family string // proxserve -fn
	Cache  int    // proxserve -cache, 0 = default (4096 lists)
	Fleet  bool   // coordinator + 2 shard processes instead of one process
	Mix    []mixPart
	// Rate is the open-loop arrival rate in queries per second, fixed
	// once on the reference host (2 cores, go1.24) at about 30 % of the
	// workload's closed-loop throughput there.
	Rate float64
	// Limit is the response-time guarantee the open loop is held to: a
	// request counts towards within_limit_share when it is answered
	// correctly within Limit of its due time. 100 ms for one process,
	// 250 ms for the fleet: at least four times the open-loop p99
	// measured on the reference host (8–26 ms, fleet 45–60 ms) and above
	// its p99 in the host's slow stretches (fleet 90 ms), so the host's
	// own noise stays inside it and a server that stalls or fails does
	// not. A shorter limit on cold_decode (30 ms) counted the host's
	// stalls: at 250 qps one 150 ms stall is 1 % of the phase.
	Limit time.Duration
}

var andMix = []mixPart{{Class: "topic", Slots: 2}, {Class: "wide5", Slots: 1}, {Class: "pair2", Slots: 1}}

var workloads = []*workload{
	{Name: "warm_and", Family: "win", Mix: andMix, Rate: 100, Limit: 100 * time.Millisecond},
	{Name: "cold_decode", Family: "med", Cache: 64, Mix: []mixPart{{Class: "rare", Slots: 1}}, Rate: 250, Limit: 100 * time.Millisecond},
	{Name: "union_or", Family: "med", Rate: 35, Limit: 100 * time.Millisecond,
		Mix: []mixPart{{Class: "topic", Slots: 1, Forms: []form{{"or", 0}, {"or", 2}}}}},
	{Name: "remote_fleet", Family: "win", Fleet: true, Mix: andMix, Rate: 45, Limit: 250 * time.Millisecond},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// plan is a workload's request stream: the distinct queries and the
// order they are sent in.
type plan struct {
	Distinct []query
	Stream   []int // indexes into Distinct
}

// buildPlan lays the classes out as a seeded, stratified stream: every
// round of requests holds each class in its fixed share in a seeded
// order, and within a class the tuples rotate in a seeded order, so
// every seed sends the same mix and each distinct query about equally
// often.
func buildPlan(w *workload, classes map[string][]query, seed int64, length int) plan {
	rng := rand.New(rand.NewSource(seed ^ 0x57fea))
	var p plan
	var rots [][]int // per mix part: indexes into p.Distinct, seeded order
	var round []int  // mix part of each slot of a round
	for _, part := range w.Mix {
		var idx []int
		for i, q := range classes[part.Class] {
			if len(part.Forms) > 0 {
				f := part.Forms[i%len(part.Forms)]
				q.Mode, q.M = f.Mode, f.M
			}
			idx = append(idx, len(p.Distinct))
			p.Distinct = append(p.Distinct, q)
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for s := 0; s < part.Slots && len(idx) > 0; s++ {
			round = append(round, len(rots))
		}
		rots = append(rots, idx)
	}
	next := make([]int, len(rots))
	for len(p.Stream) < length && len(round) > 0 {
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, m := range round {
			p.Stream = append(p.Stream, rots[m][next[m]%len(rots[m])])
			next[m]++
		}
	}
	return p
}
