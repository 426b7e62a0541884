//go:build !faultinject

package faultinject

import (
	"testing"
	"time"
)

// The default build must be inert: even a fully armed plan fires
// nothing, so no production code path can be faulted by accident.
func TestDisabledBuildIsInert(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled is true without the faultinject build tag")
	}
	Activate(Config{
		Seed:    1,
		Rates:   map[Site]float64{KernelJoin: 1, ConceptDecode: 1, NetDrop: 1},
		Latency: time.Hour,
	})
	defer Deactivate()
	for s := Site(0); s < numSites; s++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("site %v panicked in disabled build: %v", s, r)
				}
			}()
			MaybePanic(s)
		}()
		MaybeSleep(s) // must return immediately, not sleep an hour
		if Fires(s) {
			t.Fatalf("site %v fires in disabled build", s)
		}
		if Fired(s) != 0 {
			t.Fatalf("site %v reports firings in disabled build", s)
		}
	}
}
