package remote

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"bestjoin/internal/engine"
	"bestjoin/internal/faultinject"
	"bestjoin/internal/index"
)

// ServerConfig bounds a shard server's request surface.
type ServerConfig struct {
	// MaxQueryBytes caps a /shardquery body; ≤ 0 means MaxQueryBytes.
	MaxQueryBytes int64
	// MaxIndexBytes caps a /swapindex body; ≤ 0 means 256 MiB.
	MaxIndexBytes int64
}

// Server exposes one engine.Searcher as a shard process's HTTP API:
// POST /shardquery (one wire query in, one wire result out), POST
// /swapindex (a marshaled compact index in, hot-swapped), GET
// /shardstats, and GET /healthz. Any Searcher serves — a single
// engine is the normal shard process, but a coordinator works too
// (tiered fleets).
type Server struct {
	s          engine.Searcher
	queryBytes int64
	indexBytes int64
}

// NewServer wraps a searcher for serving.
func NewServer(s engine.Searcher, cfg ServerConfig) *Server {
	qb := cfg.MaxQueryBytes
	if qb <= 0 {
		qb = MaxQueryBytes
	}
	ib := cfg.MaxIndexBytes
	if ib <= 0 {
		ib = 256 << 20
	}
	return &Server{s: s, queryBytes: qb, indexBytes: ib}
}

// Register mounts all four routes on a mux.
func (sv *Server) Register(mux *http.ServeMux) {
	sv.RegisterShardOnly(mux)
	mux.HandleFunc("/healthz", sv.HandleHealthz)
}

// RegisterShardOnly mounts the shard API without /healthz, for hosts
// that already serve a compatible /healthz of their own (proxserve's
// endpoint encodes the same engine.Health shape with the same 200/503
// mapping, which is all the client-side Shard.Health expects).
func (sv *Server) RegisterShardOnly(mux *http.ServeMux) {
	mux.HandleFunc("/shardquery", sv.handleQuery)
	mux.HandleFunc("/swapindex", sv.handleSwap)
	mux.HandleFunc("/shardstats", sv.handleStats)
}

// handleQuery serves one wire query. The four network fault sites
// fire here under the faultinject build tag, simulating — in wire
// order — a congested network (latency before handling), a dropped
// connection (abort without a response), a crashing handler (HTTP
// 500), and a torn write (truncated response bytes).
func (sv *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	faultinject.MaybeSleep(faultinject.NetLatency)
	if faultinject.Fires(faultinject.NetDrop) {
		// http.ErrAbortHandler aborts the connection without writing a
		// response — the client sees a torn stream, not a status.
		panic(http.ErrAbortHandler)
	}
	if faultinject.Fires(faultinject.NetStatus) {
		http.Error(w, "injected fault", http.StatusInternalServerError)
		return
	}
	var wq WireQuery
	if err := decodeWire(http.MaxBytesReader(w, r.Body, sv.queryBytes), &wq); err != nil {
		http.Error(w, "bad query: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := wq.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q, err := wq.ToQuery()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if b := wq.Budget(); b > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b)
		defer cancel()
	}
	res, err := sv.s.Search(ctx, q)
	if err != nil {
		if errors.Is(err, engine.ErrOverloaded) {
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := json.Marshal(EncodeResult(res, sv.s.Health().Epoch))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if faultinject.Fires(faultinject.NetCorrupt) {
		body = body[:len(body)/2]
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleSwap hot-reloads the shard onto a new index partition shipped
// in the request body (index.Compact.Marshal bytes). LoadCompact
// validates eagerly, so corrupt bytes answer 400 and never reach the
// serving engine.
func (sv *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, sv.indexBytes))
	if err != nil {
		http.Error(w, "read index: "+err.Error(), http.StatusBadRequest)
		return
	}
	idx, err := index.LoadCompact(body)
	if err != nil {
		http.Error(w, "load index: "+err.Error(), http.StatusBadRequest)
		return
	}
	sv.s.SwapIndex(idx)
	w.WriteHeader(http.StatusNoContent)
}

// handleStats serves the searcher's Stats snapshot as JSON.
func (sv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sv.s.Stats())
}

// HandleHealthz serves the searcher's Health as JSON, 503 when not
// ready — the shape health-gated rolls and load balancers poll.
func (sv *Server) HandleHealthz(w http.ResponseWriter, r *http.Request) {
	h := sv.s.Health()
	w.Header().Set("Content-Type", "application/json")
	if !h.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}
