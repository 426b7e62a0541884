package remote

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"bestjoin/internal/engine"
	"bestjoin/internal/index"
	"bestjoin/internal/match"
)

// The shard wire's untrusted bytes, fuzzed the way they arrive: decoded
// as the server decodes a query and the client a result, validated, and
// rebuilt into the engine's value. None of it may panic, and a value
// the checks accept must survive a second trip over the wire unchanged.

// wireBytes marshals v for a fuzz seed or a second trip.
func wireBytes(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// FuzzShardQuery: a /shardquery body that decodes, validates and
// resolves re-encodes (EncodeQuery, as a coordinator sends it) to a
// body that decodes to the same wire query and resolves again.
func FuzzShardQuery(f *testing.F) {
	floor := engine.NewGlobalFloor()
	floor.Raise(0.25)
	seed, err := EncodeQuery(engine.Query{
		Concepts: []index.Concept{{"lenovo": 1, "dell": 0.9}, {"nba": 1}},
		Spec:     engine.KernelSpec{Family: "win", Alpha: 0.1, Valid: true},
		K:        5, Mode: engine.ModeOR, MinMatch: 1, Floor: floor,
	}, 1500*time.Millisecond)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wireBytes(f, seed))
	f.Add([]byte(`{"concepts":[{"a":-0}],"family":"med","alpha":-0,"mode":"and","floor":-0}`))
	f.Add([]byte(`{"concepts":[{"a":1}],"family":"max","alpha":1e308,"k":65536,"budget_ms":3600000}`))
	f.Add([]byte(`{"concepts":[{"\xff":1},{"a":1}],"family":"win","alpha":0.1,"min_match":2} trailing`))
	f.Add([]byte(`{"concepts":[{"a":1}],"family":"win","alpha":0.1,"extra":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var wq WireQuery
		if decodeWire(bytes.NewReader(data), &wq) != nil || wq.Validate() != nil {
			return
		}
		q, err := wq.ToQuery()
		if err != nil {
			return
		}
		again, err := EncodeQuery(q, wq.Budget())
		if err != nil {
			t.Fatalf("an accepted query does not re-encode: %v\n%+v", err, wq)
		}
		var back WireQuery
		if err := decodeWire(bytes.NewReader(wireBytes(t, again)), &back); err != nil {
			t.Fatalf("a re-encoded query does not decode: %v", err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("a re-encoded query fails validation: %v", err)
		}
		if _, err := back.ToQuery(); err != nil {
			t.Fatalf("a re-encoded query does not resolve: %v", err)
		}
		if !reflect.DeepEqual(back, wq) {
			t.Fatalf("round trip changed the query:\n got %+v\nwant %+v", back, wq)
		}
	})
}

// FuzzShardResult: a /shardquery response that decodes and validates
// rebuilds into an engine.Result whose re-encoding (EncodeResult, as a
// shard sends it) decodes and validates to the same wire result and the
// same engine.Result.
func FuzzShardResult(f *testing.F) {
	f.Add(wireBytes(f, EncodeResult(&engine.Result{
		Docs: []engine.DocResult{
			{Doc: 7, Score: 0.5, Set: match.Set{{Loc: 3, Score: 1}, {Loc: 9, Score: 0.25}}},
			{Doc: 2, Score: 0.5},
		},
		Candidates: 40, Evaluated: 12, Pruned: 28,
	}, 3)))
	f.Add([]byte(`{"docs":null,"candidates":0,"evaluated":0,"pruned":0,"failed":0,"epoch":0}`))
	f.Add([]byte(`{"docs":[{"doc":1,"score":-0,"set":[]},{"doc":2,"score":-0}],"partial":true,"candidates":1099511627776,"evaluated":0,"pruned":0,"failed":0,"epoch":18446744073709551615}`))
	f.Add([]byte(`{"docs":[{"doc":1,"score":1},{"doc":1,"score":1}],"candidates":2,"evaluated":2,"pruned":0,"failed":0,"epoch":1}`))
	f.Add([]byte(`{"docs":[{"doc":-1,"score":1e400}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var wr WireResult
		if decodeWire(bytes.NewReader(data), &wr) != nil || wr.Validate() != nil {
			return
		}
		r := wr.ToResult()
		again := EncodeResult(r, wr.Epoch)
		var back WireResult
		if err := decodeWire(bytes.NewReader(wireBytes(t, again)), &back); err != nil {
			t.Fatalf("a re-encoded result does not decode: %v", err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("a re-encoded result fails validation: %v", err)
		}
		if !reflect.DeepEqual(back, again) || !reflect.DeepEqual(back.ToResult(), r) {
			t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", back, again)
		}
	})
}
