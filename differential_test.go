package bestjoin_test

import (
	"testing"

	"bestjoin/internal/refrank/refranktest"
)

// TestDifferential runs the whole differential matrix: every
// configuration of every healthy topology against internal/refrank.
func TestDifferential(t *testing.T) {
	refranktest.Run(t, refranktest.Slice{})
}

// TestShardedPairDifferential runs the matrix's pair tiers: lists built
// at start-up on one engine, on in-process coordinators (whose
// partitions carry none) and on remote fleets, and lists a fleet's
// shards build on demand, each asked the two-term AND query the lists
// serve and the neighbours they must not.
func TestShardedPairDifferential(t *testing.T) {
	refranktest.Run(t, refranktest.Slice{
		Topologies: func(tp refranktest.Topology) bool { return tp.Tier != refranktest.NoPairs },
	})
}
