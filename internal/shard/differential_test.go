package shard_test

import (
	"testing"

	"bestjoin/internal/refrank/refranktest"
)

// TestShardDifferential runs the differential matrix's in-process
// coordinators, over 1, 2 and 4 shards: each answers what
// internal/refrank ranks over the whole index.
func TestShardDifferential(t *testing.T) {
	refranktest.Run(t, refranktest.Slice{Topologies: func(tp refranktest.Topology) bool {
		return !tp.Remote && tp.Shards > 0
	}})
}
