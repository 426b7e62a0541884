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
