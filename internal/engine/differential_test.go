package engine_test

// The engine's slices of the differential matrix (internal/refrank/
// refranktest): one engine, no coordinator, held to internal/refrank.

import (
	"testing"

	"bestjoin/internal/refrank/refranktest"
)

// single keeps one engine without pair lists.
func single(tp refranktest.Topology) bool { return tp == refranktest.Topology{} }

// TestDifferentialRandomCorpora runs one engine on the random corpora,
// at the dealt K and at a K covering every qualifying document: both
// answer what the reference ranks, and the covering query confirms
// exactly the qualifying documents, pruning none.
func TestDifferentialRandomCorpora(t *testing.T) {
	refranktest.Run(t, refranktest.Slice{Topologies: single, Corpus: "random"})
}

// TestDifferentialBlocksVsFlat runs one engine over dense ids, every
// corpus and query shape, each query first over cold stems and then
// repeated over the stems it decoded.
func TestDifferentialBlocksVsFlat(t *testing.T) {
	refranktest.Run(t, refranktest.Slice{Topologies: single, IDs: refranktest.DenseIDs})
}

// TestDifferentialBatchVsVarint runs one engine over ids spaced 2^32+1
// apart: every id past the first is beyond 32 bits.
func TestDifferentialBatchVsVarint(t *testing.T) {
	refranktest.Run(t, refranktest.Slice{Topologies: single, IDs: refranktest.SpacedIDs})
}

// TestDifferentialUnionWANDVsExhaustive runs one engine's union walk:
// OR queries and every m of n below n, against the reference's
// exhaustive ranking of the documents matching at least m concepts.
func TestDifferentialUnionWANDVsExhaustive(t *testing.T) {
	refranktest.Run(t, refranktest.Slice{Topologies: single, Shapes: refranktest.Shape.Union})
}

// TestDifferentialPairServedVsKernel runs one engine holding the pair
// lists of its query's concepts, asked, in turn, the two-term AND query
// a list serves (in both concept orders) and a neighbour it must not.
func TestDifferentialPairServedVsKernel(t *testing.T) {
	refranktest.Run(t, refranktest.Slice{Topologies: func(tp refranktest.Topology) bool {
		return tp == refranktest.Topology{Tier: refranktest.BuiltPairs}
	}})
}
