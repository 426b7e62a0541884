// Package bestjoin computes weighted proximity best-joins over match
// lists, implementing Thonangi, He, Doan, Wang and Yang, "Weighted
// Proximity Best-Joins for Information Retrieval" (ICDE 2009).
//
// # Problem
//
// Given a multi-term query and, for each term, a list of its matches
// in a document — each match carrying a location and a quality score —
// a weighted proximity best-join finds the matchset (one match per
// term) that maximizes a scoring function combining the individual
// match scores with the proximity of the match locations. This is the
// core primitive of entity search, question answering, and information
// extraction systems that rank answers rather than documents.
//
// # Scoring functions
//
// Three families are supported, each with the efficient algorithm the
// paper develops for it:
//
//   - WIN (window-length): penalizes the smallest window enclosing the
//     matchset. BestWIN runs in O(2^|Q|·Σ|Lj|).
//   - MED (distance-from-median): penalizes each match by its distance
//     to the matchset's median location, distinguishing clustered
//     matchsets from merely narrow ones. BestMED runs in O(|Q|·Σ|Lj|).
//   - MAX (maximize-over-location): scores the matchset at the best
//     possible reference location, anchoring answers near
//     high-confidence matches. BestMAX runs in O(|Q|·Σ|Lj|).
//
// Ready-made instances (ExpWIN, ExpMED, SumMAX, ProdMAX, LinearWIN,
// LinearMED) cover the paper's equations (1)–(5) and its experimental
// settings; any type satisfying the WIN/MED/MAX interfaces works.
//
// # Quick start
//
//	lists := bestjoin.MatchLists{
//	    {{Loc: 3, Score: 0.9}, {Loc: 40, Score: 1.0}}, // matches for term 0
//	    {{Loc: 5, Score: 0.8}},                        // matches for term 1
//	}
//	res := bestjoin.BestWIN(bestjoin.ExpWIN{Alpha: 0.1}, lists)
//	if res.OK {
//	    fmt.Println(res.Set, res.Score)
//	}
//
// BestValid* variants additionally guarantee the returned matchset
// uses no token for two query terms at once (Section VI of the paper);
// ByLocation* variants return one locally-best matchset per anchor
// location for information-extraction workloads (Section VII).
//
// # Join kernels
//
// The Best* functions solve one instance and return a caller-owned
// result. Hot loops that join many instances in sequence — a worker
// ranking one candidate document after another — should instead hold a
// reusable kernel (JoinKernel, built by NewWINKernel, NewMEDKernel,
// NewMAXKernel, or NewValidKernel for duplicate avoidance): Reset
// loads an instance, Join solves it, and all working state (WIN's
// subset table and chain-node arena, MED/MAX's dominating-match stacks
// and envelope cursors, dedup's memo and scratch) is reused across
// calls, so a warmed kernel allocates nothing per instance. The
// returned Matchset aliases kernel memory and is valid only until the
// next Reset or Join; Clone it to keep it. Kernels are not safe for
// concurrent use — build one per goroutine (the engine does this via
// KernelFactory). The Best* functions remain thin wrappers that run a
// fresh kernel once.
//
// # Beyond the paper
//
// KBestWIN returns the k best distinct matchsets; TopKWIN/MED/MAX the
// k best per-anchor results; StreamMED emits by-location results in a
// single pass given a score bound; BestTypeAnchored fixes the
// reference at a type term's match (the model MAX generalizes); Batch
// and RankDocuments process document collections in parallel;
// EncodeLists/DecodeLists give match lists a compact binary form.
//
// # Serving queries over an index
//
// For ranking whole corpora rather than single documents, NewEngine
// wraps a compacted inverted index (CompactIndex) in a concurrent
// query engine — candidate generation, per-document best-joins on a
// worker pool, a global top-k heap, LRU-cached posting decoding,
// context deadlines with partial results, and Stats/expvar
// observability. The engine prunes losslessly by default: candidates
// whose score cap over per-concept block-maximum match scores
// (CheckCapWIN/MED/MAX probe a scoring function's caps) cannot beat
// the current top-k floor are
// skipped without joining, with output identical to the exhaustive
// engine; EngineConfig.DisablePruning turns it off. Every concept is
// served through a block table built from the stem postings on first
// use, which moves the same pruning below the decode: candidate
// generation walks per-block skip tables, blocks are decoded lazily
// and in parallel on the worker pool, and blocks whose block-max score
// bound cannot beat the top-k floor are skipped without touching their
// bytes. Queries are conjunctive by default; EngineQuery.Mode =
// ModeOR (with an optional m-of-n EngineQuery.MinMatch threshold)
// instead ranks the union of documents matching at least m concepts
// through a block-max WAND pivot walk, pruned by a union score bound
// that remains sound for the paper's product-form scorers. On the warm
// path, block buffers use a batched group-varint encoding (decoding
// four integers per control byte, values past uint32 carried by an
// in-band escape) and concurrent queries sharing a concept
// coalesce their block decodes through a singleflight layer — one
// decode per block no matter how many queries race, counted by
// Stats().CoalescedDecodes and switchable off with
// EngineConfig.DisableCoalescing. The implementation lives in
// internal/engine; see cmd/proxserve for a runnable server and
// examples/engine for a walkthrough.
//
// NewRemoteFleet scales the same engine out across processes: the
// corpus is partitioned by document id (CompactIndex.Partition), each
// partition is served by an Engine behind NewRemoteServer, and the
// returned ShardedEngine scatter-gathers every query over the fleet,
// rank-merging the per-shard top-k heaps into answers bitwise
// identical to the single engine's. Engine and ShardedEngine both
// satisfy the Searcher contract (Search, Stats, SwapIndex, Health) —
// servers need not know which they hold; reloads roll shard by shard,
// and Health reports the index epoch plus per-shard readiness
// (proxserve's -serve-shard and -shards-at flags and GET /healthz).
//
// # From text to match lists
//
// The Document type and the matcher constructors (NewLexicalMatcher,
// NewDateMatcher, NewPlaceMatcher, …) turn raw text into match lists
// using a tokenizer, a Porter stemmer, an embedded lexical graph and a
// gazetteer — the same pipeline the paper's TREC and DBWorld
// experiments use. See the examples directory for complete programs.
package bestjoin
