//go:build faultinject

package faultinject

import (
	"sync"
	"testing"
	"time"
)

// catches runs f and reports the recovered value, nil if none.
func catches(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

func TestRateOneAlwaysFires(t *testing.T) {
	Activate(Config{Seed: 42, Rates: map[Site]float64{KernelJoin: 1}})
	defer Deactivate()
	for i := 0; i < 100; i++ {
		r := catches(func() { MaybePanic(KernelJoin) })
		p, ok := r.(Panic)
		if !ok || p.Site != KernelJoin {
			t.Fatalf("call %d: recovered %v, want Panic{KernelJoin}", i, r)
		}
	}
	if got := Fired(KernelJoin); got != 100 {
		t.Fatalf("Fired = %d, want 100", got)
	}
	// A site with no configured rate never fires.
	if r := catches(func() { MaybePanic(ConceptDecode) }); r != nil {
		t.Fatalf("unconfigured site fired: %v", r)
	}
}

// TestFiresMatchesPlan pins the bare decision hook the network sites
// use: rate 1 always fires and counts, an unconfigured site never does.
func TestFiresMatchesPlan(t *testing.T) {
	Activate(Config{Seed: 11, Rates: map[Site]float64{NetDrop: 1}})
	defer Deactivate()
	for i := 0; i < 50; i++ {
		if !Fires(NetDrop) {
			t.Fatalf("call %d: rate-1 site did not fire", i)
		}
		if Fires(NetStatus) {
			t.Fatalf("call %d: unconfigured site fired", i)
		}
	}
	if got := Fired(NetDrop); got != 50 {
		t.Fatalf("Fired = %d, want 50", got)
	}
}

func TestRateZeroNeverFires(t *testing.T) {
	Activate(Config{Seed: 42, Rates: map[Site]float64{NetDrop: 0}})
	defer Deactivate()
	for i := 0; i < 1000; i++ {
		if Fires(NetDrop) {
			t.Fatal("rate-0 site fired")
		}
	}
}

// TestDeterministicUnderSeed pins the reproducibility contract: the
// same seed yields the same firing pattern by call ordinal; a
// different seed yields a different one.
func TestDeterministicUnderSeed(t *testing.T) {
	pattern := func(seed int64) []bool {
		Activate(Config{Seed: seed, Rates: map[Site]float64{NetDrop: 0.3}})
		defer Deactivate()
		out := make([]bool, 500)
		for i := range out {
			out[i] = Fires(NetDrop)
		}
		return out
	}
	a, b, c := pattern(7), pattern(7), pattern(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical 500-call patterns")
	}
}

// TestRateIsApproximatelyHonored draws many decisions and checks the
// empirical rate; the decision hash must not be wildly biased.
func TestRateIsApproximatelyHonored(t *testing.T) {
	Activate(Config{Seed: 1, Rates: map[Site]float64{NetDrop: 0.25}})
	defer Deactivate()
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if Fires(NetDrop) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if rate < 0.22 || rate > 0.28 {
		t.Fatalf("empirical rate %.3f, want ~0.25", rate)
	}
}

func TestMaybeSleepInjectsLatency(t *testing.T) {
	Activate(Config{Seed: 1, Rates: map[Site]float64{DecodeLatency: 1}, Latency: 20 * time.Millisecond})
	defer Deactivate()
	start := time.Now()
	MaybeSleep(DecodeLatency)
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("slept only %v", d)
	}
}

// TestConcurrentDecisionsRaceClean hammers one site from many
// goroutines; the point is the -race run in `make chaos`.
func TestConcurrentDecisionsRaceClean(t *testing.T) {
	Activate(Config{Seed: 3, Rates: map[Site]float64{NetDrop: 0.5}})
	defer Deactivate()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				Fires(NetDrop)
				Fired(NetDrop)
			}
		}()
	}
	wg.Wait()
	if Fired(NetDrop) == 0 {
		t.Fatal("no firings under concurrency")
	}
	Deactivate()
	if Fires(NetDrop) {
		t.Fatal("fired after Deactivate")
	}
}
