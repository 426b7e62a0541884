package shard

// Quorum degraded mode and health-gated rolling reloads: the
// availability half of the coordinator. These tests drive the Child
// seam directly — stub children that fail searches, fail swaps, or
// come back unhealthy — so the quorum accounting, the sound-subset
// property of partial answers, the roll abort paths, and the
// mixed-epoch health rule are all pinned without a network.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"bestjoin/internal/engine"
	"bestjoin/internal/index"
	"bestjoin/internal/scorefn"
)

// failChild is a Child whose every operation fails — a crashed shard
// process as the coordinator sees it.
type failChild struct{ err error }

func (f failChild) Pin() SearchFunc {
	return func(context.Context, engine.Query) (*engine.Result, error) { return nil, f.err }
}
func (f failChild) SwapIndex(*index.Compact) error { return f.err }
func (f failChild) Stats() engine.Stats            { return engine.Stats{} }
func (f failChild) Health() engine.Health          { return engine.Health{} }

// localChildren partitions the index and wraps each piece as a local
// Child, mirroring what New does internally.
func localChildren(t *testing.T, idx *index.Compact, n int, cfg engine.Config) []Child {
	t.Helper()
	parts, err := idx.Partition(n)
	if err != nil {
		t.Fatal(err)
	}
	children := make([]Child, n)
	for i, p := range parts {
		children[i] = localChild{eng: engine.New(p, cfg)}
	}
	return children
}

// assertSoundSubset checks the degraded-answer contract: every
// returned document appears in the full healthy ranking with the
// identical score and matchset, and the returned order is the full
// ranking's order restricted to the returned documents.
func assertSoundSubset(t *testing.T, label string, got, full *engine.Result) {
	t.Helper()
	rank := map[int]int{}
	for i, d := range full.Docs {
		rank[d.Doc] = i
	}
	prev := -1
	for _, d := range got.Docs {
		i, ok := rank[d.Doc]
		if !ok {
			t.Fatalf("%s: degraded answer contains doc %d absent from the healthy ranking", label, d.Doc)
		}
		if i <= prev {
			t.Fatalf("%s: degraded answer breaks the healthy ranking order at doc %d", label, d.Doc)
		}
		prev = i
		f := full.Docs[i]
		if d.Score != f.Score {
			t.Fatalf("%s: doc %d score %v, healthy ranking has %v", label, d.Doc, d.Score, f.Score)
		}
		if !docsEqual([]engine.DocResult{d}, []engine.DocResult{f}) {
			t.Fatalf("%s: doc %d matchset differs from the healthy ranking's", label, d.Doc)
		}
	}
}

// TestQuorumDegradedAnswer loses one shard of three and asserts the
// quorum-2 coordinator still answers: Degraded set, FailedShards
// counted, every returned document carrying its true score in the
// healthy order — and the strict (quorum = all) coordinator fails the
// same query outright.
func TestQuorumDegradedAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := shardCorpus(rng)
	compact := buildCompact(t, docs)
	full := engine.New(compact, engine.Config{Workers: 2})
	jn := engine.MEDJoiner(scorefn.ExpMED{Alpha: 0.05})

	down := errors.New("simulated shard crash")
	for round := 0; round < 5; round++ {
		concepts := shardConcepts(rng)
		// Ground truth: the whole corpus, ranked deep enough to
		// contain any subset answer.
		fullRes, err := full.Search(context.Background(),
			engine.Query{Concepts: concepts, Join: jn, K: len(docs)})
		if err != nil {
			t.Fatal(err)
		}

		children := localChildren(t, compact, 3, engine.Config{Workers: 1})
		children[round%3] = failChild{err: down}

		strict, err := NewFromChildren(children, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := strict.Search(context.Background(),
			engine.Query{Concepts: concepts, Join: jn, K: 5}); !errors.Is(err, down) {
			t.Fatalf("strict coordinator with a dead shard: err %v, want %v", err, down)
		}

		c, err := NewFromChildren(children, Config{Quorum: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Search(context.Background(),
			engine.Query{Concepts: concepts, Join: jn, K: 5})
		if err != nil {
			t.Fatalf("round %d: quorum-2 coordinator failed: %v", round, err)
		}
		if !res.Degraded {
			t.Fatalf("round %d: partial-fleet answer not flagged Degraded", round)
		}
		if res.FailedShards != 1 {
			t.Fatalf("round %d: FailedShards = %d, want 1", round, res.FailedShards)
		}
		assertSoundSubset(t, fmt.Sprintf("round %d", round), res, fullRes)

		st := c.Stats()
		if st.QuorumDegraded != 1 {
			t.Fatalf("round %d: Stats().QuorumDegraded = %d, want 1", round, st.QuorumDegraded)
		}
		if st.ShardFailures != 1 {
			t.Fatalf("round %d: Stats().ShardFailures = %d, want 1", round, st.ShardFailures)
		}
	}
}

// TestQuorumBelowThresholdFails loses two shards of three under
// quorum 2: one survivor is below quorum, so the query must fail —
// never a silently tiny answer.
func TestQuorumBelowThresholdFails(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	compact := buildCompact(t, shardCorpus(rng))
	down := errors.New("simulated shard crash")
	children := localChildren(t, compact, 3, engine.Config{Workers: 1})
	children[0] = failChild{err: down}
	children[2] = failChild{err: down}
	c, err := NewFromChildren(children, Config{Quorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	jn := engine.MEDJoiner(scorefn.ExpMED{Alpha: 0.05})
	if _, err := c.Search(context.Background(),
		engine.Query{Concepts: shardConcepts(rng), Join: jn, K: 5}); !errors.Is(err, down) {
		t.Fatalf("one survivor under quorum 2: err %v, want %v", err, down)
	}
}

// TestQuorumConfigValidation pins the quorum range: 0 means all, out
// of range is a constructor error.
func TestQuorumConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	compact := buildCompact(t, shardCorpus(rng))
	children := localChildren(t, compact, 2, engine.Config{Workers: 1})
	for _, bad := range []int{-1, 3} {
		if _, err := NewFromChildren(children, Config{Quorum: bad}); err == nil {
			t.Fatalf("quorum %d over 2 children accepted", bad)
		}
	}
	if _, err := NewFromChildren(nil, Config{}); err == nil {
		t.Fatal("coordinator over zero children accepted")
	}
	c, err := NewFromChildren(children, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.quorum != 2 {
		t.Fatalf("default quorum = %d, want all (2)", c.quorum)
	}
}

// TestHealthMidRollNeverMixedEpochReady is the mid-roll health
// contract: after the first child of two has swapped but the second
// has not, the fleet's epochs are mixed and Health must refuse Ready
// — a load balancer routing to a half-rolled fleet could merge two
// index generations. After the roll completes, Ready returns at the
// next coordinator epoch.
func TestHealthMidRollNeverMixedEpochReady(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	docs := shardCorpus(rng)
	compact := buildCompact(t, docs)
	c, err := New(compact, Config{Shards: 2, Engine: engine.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if h := c.Health(); !h.Ready || h.Epoch != 0 {
		t.Fatalf("fresh fleet: Ready=%v Epoch=%d, want true/0", h.Ready, h.Epoch)
	}

	checked := false
	c.rollHook = func(shard int) {
		if shard != 0 {
			return
		}
		h := c.Health()
		if h.Ready {
			t.Error("mixed-epoch fleet (shard 0 swapped, shard 1 not) reported Ready")
		}
		if h.Epoch != 0 {
			t.Errorf("mid-roll coordinator epoch = %d, want 0 (generation not yet flipped)", h.Epoch)
		}
		if len(h.Shards) == 2 && h.Shards[0].Epoch == h.Shards[1].Epoch {
			t.Errorf("expected mixed shard epochs mid-roll, got %d and %d",
				h.Shards[0].Epoch, h.Shards[1].Epoch)
		}
		checked = true
	}
	c.SwapIndex(compact)
	if !checked {
		t.Fatal("rollHook never observed the mid-roll window")
	}
	h := c.Health()
	if !h.Ready || h.Epoch != 1 || h.Err != "" {
		t.Fatalf("post-roll: Ready=%v Epoch=%d Err=%q, want true/1/\"\"", h.Ready, h.Epoch, h.Err)
	}
	for _, sh := range h.Shards {
		if sh.Epoch != 1 {
			t.Fatalf("post-roll shard %d epoch = %d, want 1", sh.Shard, sh.Epoch)
		}
	}
}

// swapFailOnce wraps a child to fail its first SwapIndex — a shard
// process that rejected one roll, then recovered.
type swapFailOnce struct {
	Child
	failed bool
	err    error
}

func (s *swapFailOnce) SwapIndex(idx *index.Compact) error {
	if !s.failed {
		s.failed = true
		return s.err
	}
	return s.Child.SwapIndex(idx)
}

// TestRollAbortOnSwapFailure pins the abort path: a child swap
// failure stops the roll, leaves the generation unflipped, and
// surfaces through Health.Err (without clearing Ready — the fleet is
// stale, not down); the next successful roll clears the record and
// advances the generation.
func TestRollAbortOnSwapFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	compact := buildCompact(t, shardCorpus(rng))
	children := localChildren(t, compact, 2, engine.Config{Workers: 1})
	children[1] = &swapFailOnce{Child: children[1], err: errors.New("disk full on shard")}
	c, err := NewFromChildren(children, Config{})
	if err != nil {
		t.Fatal(err)
	}

	c.SwapIndex(compact)
	h := c.Health()
	if h.Epoch != 0 {
		t.Fatalf("aborted roll advanced the generation to %d", h.Epoch)
	}
	if !strings.Contains(h.Err, "disk full") {
		t.Fatalf("Health.Err = %q, want the swap failure surfaced", h.Err)
	}
	// The abort left shard 0 on epoch 1 and shard 1 on epoch 0 —
	// mixed, so the stuck fleet must also read not-ready.
	if h.Ready {
		t.Fatal("fleet stuck mid-roll with mixed epochs reported Ready")
	}

	c.SwapIndex(compact)
	h = c.Health()
	if h.Err != "" || h.Epoch != 1 || !h.Ready {
		t.Fatalf("after recovery roll: Ready=%v Epoch=%d Err=%q, want true/1/\"\"", h.Ready, h.Epoch, h.Err)
	}
}

// unhealthyAfterSwap wraps a child that swaps fine but never reports
// Ready afterwards — the pause-on-unhealthy case the health gate
// exists for.
type unhealthyAfterSwap struct {
	Child
	swapped bool
}

func (u *unhealthyAfterSwap) SwapIndex(idx *index.Compact) error {
	u.swapped = true
	return u.Child.SwapIndex(idx)
}

func (u *unhealthyAfterSwap) Health() engine.Health {
	h := u.Child.Health()
	if u.swapped {
		h.Ready = false
	}
	return h
}

// TestRollPausesOnUnhealthyChild pins the health gate: a child that
// comes back unhealthy stalls the roll until the timeout, the roll
// aborts without flipping the generation, and later children are
// never swapped.
func TestRollPausesOnUnhealthyChild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	compact := buildCompact(t, shardCorpus(rng))
	children := localChildren(t, compact, 3, engine.Config{Workers: 1})
	children[0] = &unhealthyAfterSwap{Child: children[0]}
	c, err := NewFromChildren(children, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.rollWait = 30 * time.Millisecond

	c.SwapIndex(compact)
	h := c.Health()
	if h.Epoch != 0 {
		t.Fatalf("roll past an unhealthy child advanced the generation to %d", h.Epoch)
	}
	if !strings.Contains(h.Err, "not ready") {
		t.Fatalf("Health.Err = %q, want the health-gate timeout surfaced", h.Err)
	}
	// Children after the unhealthy one must still be on epoch 0: the
	// roll paused and aborted instead of marching on.
	for _, sh := range h.Shards[1:] {
		if sh.Epoch != 0 {
			t.Fatalf("shard %d swapped to epoch %d after the roll should have aborted", sh.Shard, sh.Epoch)
		}
	}
}
