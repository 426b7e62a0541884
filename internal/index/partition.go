package index

import "fmt"

// Document-partitioned sharding: Partition splits one compacted index
// into n shard indexes whose posting lists and pair lists are each
// restricted to the shard's documents.
// The partitioner is the substrate of the scatter-gather serving tier
// (internal/shard): best-join scoring is document-local — a document's
// match lists, and therefore its score and matchset, depend only on
// that document's own postings — so doc-partitioned sharding is
// lossless by construction, and a coordinator that rank-merges
// per-shard top-k heaps reproduces the single-index answer exactly.
//
// Two invariants make that argument hold:
//
//   - Assignment is deterministic and total: document d lives in shard
//     ShardOf(d, n) = d mod n, nowhere else. Round-robin keeps shards
//     balanced under the common "ids roughly follow ingest order"
//     distribution without needing corpus statistics.
//   - Global document ids are preserved. A shard index keeps the whole
//     corpus's id space (Docs() reports the global count) and its
//     postings carry original ids, so shard-served results need no id
//     translation and tie-breaks on document id mean the same thing on
//     every shard.
//
// A shard builds its concept block tables from its own postings, like
// any index (Compact.ConceptBlocks): a table holds exactly the shard's
// documents of the whole index's table, with the same match lists.
// Block boundaries move — a shard has ~1/n of each block's documents —
// but block-max pruning is lossless, so boundaries never change
// answers, only skip rates.

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
	shards := make([]*Compact, n)
	for s := range shards {
		shards[s] = &Compact{postings: make(map[string][]byte, len(c.postings)), docs: c.docs, blockSize: c.blockSize}
	}
	// Postings: decode each stem once, split by owner, re-encode the
	// non-empty pieces. Posting order is (doc, pos) ascending and
	// filtering preserves it, so the shard buffers are valid by
	// construction.
	split := make([][]Posting, n)
	for stem, buf := range c.postings {
		ps, err := DecodePostings(buf)
		if err != nil {
			return nil, fmt.Errorf("index: partition: postings for %q: %v", stem, err)
		}
		for s := range split {
			split[s] = split[s][:0]
		}
		for _, p := range ps {
			s := ShardOf(p.Doc, n)
			split[s] = append(split[s], p)
		}
		for s, sps := range split {
			if len(sps) > 0 {
				shards[s].postings[stem] = EncodePostings(sps)
			}
		}
	}
	if err := c.partitionPairs(shards); err != nil {
		return nil, err
	}
	return shards, nil
}

// partitionPairs filters each registered pair list per shard. Entries
// are value copies, so a shard's scores and witnesses are bitwise
// identical to the original's — the property the shard tier's
// bitwise-identity differential relies on.
func (c *Compact) partitionPairs(shards []*Compact) error {
	n := len(shards)
	for key, buf := range c.pairs {
		pt, err := DecodePairs(buf)
		if err != nil || pt == nil {
			return fmt.Errorf("index: partition: concept pairs %x/%x: %v", key.Lo, key.Hi, err)
		}
		var entries []PairEntry
		for i := range pt.Infos {
			es, err := pt.DecodeBlock(i)
			if err != nil {
				return fmt.Errorf("index: partition: concept pairs %x/%x block %d: %v", key.Lo, key.Hi, i, err)
			}
			entries = append(entries, es...)
		}
		var se []PairEntry
		for s, shard := range shards {
			se = se[:0]
			for _, e := range entries {
				if ShardOf(e.Doc, n) == s {
					se = append(se, e)
				}
			}
			if enc := EncodePairs(se, 0); enc != nil {
				if shard.pairs == nil {
					shard.pairs = make(map[PairKey][]byte)
				}
				shard.pairs[key] = enc
			}
		}
	}
	return nil
}
