package remote_test

import (
	"testing"

	"bestjoin/internal/refrank/refranktest"
)

// TestRemoteDifferential runs the differential matrix's loopback remote
// fleets of 1–3 shards.
func TestRemoteDifferential(t *testing.T) {
	refranktest.Run(t, refranktest.Slice{Topologies: func(tp refranktest.Topology) bool { return tp.Remote }})
}

// TestFloorDifferentialAgainstReference runs the kernel floors on the
// two templated corpora, where the k-th score is tied and a fifth of
// the valid joins carry a duplicate, over one engine, two in-process
// shards and a remote fleet of two: the answers are internal/naive's,
// the floor and window cuts nest, every floor-aware kernel cuts, and a
// bare kernel's only cut is the window screen.
func TestFloorDifferentialAgainstReference(t *testing.T) {
	topologies := func(tp refranktest.Topology) bool {
		return tp.Shards == 0 || tp.Shards == 2
	}
	for _, corpus := range []string{"mixed", "tied"} {
		t.Run(corpus, func(t *testing.T) {
			refranktest.Run(t, refranktest.Slice{Topologies: topologies, Corpus: corpus})
		})
	}
}
