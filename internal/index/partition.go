package index

import "fmt"

// Document-partitioned sharding: Partition splits one compacted index
// into n shard indexes whose posting lists are each restricted to the
// shard's documents — the substrate of the
// scatter-gather tier (internal/shard). Best-join scoring is
// document-local, so a coordinator that rank-merges per-shard top-k
// heaps reproduces the single-index answer exactly, given two
// invariants: assignment is deterministic and total (document d lives
// in shard ShardOf(d, n) = d mod n, nowhere else), and global document
// ids are preserved (a shard keeps the whole id space, Docs() included,
// so results need no translation and tie-breaks on id mean the same
// thing on every shard). A shard decodes its own stems (Compact.Stem)
// and carries no pair lists: a process serving a shard builds its own
// (engine.BuildPairPlan, from the whole index's plan).

// ShardOf returns the shard owning document doc under an n-way
// partition: doc mod n, the deterministic round-robin assignment used
// by Partition.
func ShardOf(doc, n int) int { return doc % n }

// Partition splits the index into n doc-partitioned shard indexes
// (see the package comment above for the invariants). n = 1 returns
// the receiver itself — Compact is read-only once serving, so sharing
// is safe. The error covers only invalid n and corrupt in-memory
// buffers; a Compact built by this package always partitions cleanly.
func (c *Compact) Partition(n int) ([]*Compact, error) {
	if n < 1 {
		return nil, fmt.Errorf("index: cannot partition into %d shards", n)
	}
	if n == 1 {
		return []*Compact{c}, nil
	}
	parts := make([]map[string][]byte, n)
	for s := range parts {
		parts[s] = make(map[string][]byte, len(c.postings))
	}
	// Postings: walk each stem once, encoding every posting into its
	// owner's piece. Posting order is (doc, pos) ascending and filtering
	// preserves it, so the shard buffers are valid by construction.
	split := make([]postingEncoder, n)
	for stem, buf := range c.postings {
		for s := range split {
			split[s] = postingEncoder{buf: split[s].buf[:0]}
		}
		if err := walkPostings(buf, func(doc, pos int) { split[ShardOf(doc, n)].add(doc, pos) }); err != nil {
			return nil, fmt.Errorf("index: partition: postings for %q: %v", stem, err)
		}
		for s := range split {
			if b := split[s].bytes(); b != nil {
				parts[s][stem] = b
			}
		}
	}
	shards := make([]*Compact, n)
	for s, postings := range parts {
		shards[s] = newCompact(c.docs, postings)
	}
	return shards, nil
}
