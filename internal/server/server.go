// Package server implements saproxd, the serving tier on top of the
// stream-aggregator (broker) tier: a sharded, multi-tenant
// approximate-query service.
//
// Figure 1 of the paper ends at a single in-process computation; this
// package makes that computation a long-running, horizontally sharded
// service. Clients register queries (aggregate kind, sliding window,
// sampling budget) over HTTP/JSON. A SHARED INGEST PLANE owns exactly
// one positioned reader per (topic, partition) regardless of query
// count: each batch is fetched and decoded once and fanned out to
// every registered query's per-shard OASRS Session — the paper's
// synchronization-free parallel sampling with the broker read
// amortized across all tenants, so N queries cost one topic read, not
// N. Per-shard windows are merged into a single "result ± error"
// stream with a combined error bound (internal/estimate's
// disjoint-population merge). A query with a target error moves its own
// shards' sampling fractions by the paper's feedback loop (§4.2.1);
// every other query samples its spec's fixed fraction. Liveness and load
// are observable at /healthz and a Prometheus-style /metrics endpoint,
// and periodic checkpoints (shared partition offsets + per-query
// delivery watermarks) make the whole daemon crash-restartable.
package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/metrics"
)

// Config configures a Server.
type Config struct {
	// Cluster is the broker to consume: the in-process *broker.Broker or
	// the routing *broker.ClusterClient, which reaches a cluster or a
	// plain brokerd over TCP.
	Cluster broker.Cluster
	// DialShard, when set, opens a dedicated broker connection per
	// ingest partition loop, so partition fetches run concurrently
	// instead of queueing on one connection. Connections implementing
	// io.Closer are closed when the plane stops. When nil the plane
	// shares Cluster — right for the in-process broker.
	DialShard func() (broker.Cluster, error)
	// Topic is the input topic all queries consume.
	Topic string
	// CheckpointDir enables periodic shard checkpoints and restart
	// recovery when non-empty.
	CheckpointDir string
	// CheckpointEvery is the checkpoint interval (default 5s).
	CheckpointEvery time.Duration
	// PollBackoff is the ingest idle-poll pause (default 10ms).
	PollBackoff time.Duration
	// Log, when set, receives operational log lines. Nil is silent.
	Log *slog.Logger
}

// Server is the multi-tenant approximate-query service.
type Server struct {
	cfg   Config
	parts int
	reg   *metrics.Registry
	mux   *http.ServeMux
	ing   *ingest // shared ingest plane

	mu      sync.Mutex
	queries map[string]*job
	nextID  int
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup

	activeGauge *metrics.Gauge
}

// New connects to the topic, restores any checkpointed queries from
// cfg.CheckpointDir, and starts the checkpoint loop. Close stops it.
func New(cfg Config) (*Server, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("server: nil cluster")
	}
	if cfg.Topic == "" {
		return nil, fmt.Errorf("server: empty topic")
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 5 * time.Second
	}
	if cfg.PollBackoff <= 0 {
		cfg.PollBackoff = 10 * time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	parts, err := cfg.Cluster.Partitions(cfg.Topic)
	if err != nil {
		return nil, fmt.Errorf("server: topic %q: %w", cfg.Topic, err)
	}
	s := &Server{
		cfg:     cfg,
		parts:   parts,
		reg:     metrics.NewRegistry(),
		queries: make(map[string]*job),
		done:    make(chan struct{}),
	}
	s.activeGauge = s.reg.Gauge("saproxd_queries_active", "registered queries", nil)
	s.buildMux()
	s.ing, err = newIngest(cfg.Cluster, cfg.DialShard, cfg.Topic, parts, cfg.PollBackoff, cfg.Log, s.reg)
	if err != nil {
		return nil, fmt.Errorf("server: ingest plane: %w", err)
	}

	// fail releases everything the constructor has already stood up —
	// plane connections and restored (unstarted) jobs — so an error
	// return leaks nothing.
	fail := func(err error) (*Server, error) {
		for _, j := range s.queries {
			j.stop(false)
		}
		s.ing.stop()
		return nil, err
	}

	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return fail(fmt.Errorf("server: checkpoint dir: %w", err))
		}
		// Re-position the shared plane before any query attaches, so
		// restored queries splice against the checkpointed offsets
		// instead of re-deciding them.
		offsets, err := loadIngestState(cfg.CheckpointDir, cfg.Topic)
		if err != nil {
			return fail(fmt.Errorf("server: load ingest state: %w", err))
		}
		s.ing.position(offsets)
		cfs, err := loadCheckpoints(cfg.CheckpointDir)
		if err != nil {
			return fail(fmt.Errorf("server: load checkpoints: %w", err))
		}
		// Restore everything before starting anything so a bad
		// checkpoint cannot leave earlier queries' workers running
		// behind the returned error.
		for _, cf := range cfs {
			// Re-normalize the restored spec: an older checkpoint may
			// carry a From of "committed", which reads as "earliest".
			if err := cf.Spec.normalize(); err != nil {
				return fail(fmt.Errorf("server: restore query %s: spec: %w", cf.ID, err))
			}
			j, err := newJob(cf.ID, cf.Spec, s, cf)
			if err != nil {
				return fail(fmt.Errorf("server: restore query %s: %w", cf.ID, err))
			}
			s.queries[cf.ID] = j
			if n, err := strconv.Atoi(strings.TrimPrefix(cf.ID, "q-")); err == nil && n >= s.nextID {
				s.nextID = n + 1
			}
		}
		for _, j := range s.jobs() {
			j.start()
			cfg.Log.Info("restored query from checkpoint", "query", j.id, "kind", j.spec.Kind)
		}
		s.activeGauge.Set(float64(len(s.queries)))
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	return s, nil
}

// Partitions returns the consumed topic's partition count (= shards per
// query).
func (s *Server) Partitions() int { return s.parts }

// Registry exposes the server's metric registry (for embedding tests).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Stats reports one query's consumed-record and served-window counters
// — the progress surface embedding benchmarks poll.
func (s *Server) Stats(id string) (records, windows int64, ok bool) {
	j, ok := s.job(id)
	if !ok {
		return 0, 0, false
	}
	for _, sh := range j.shards {
		records += sh.records.Load()
	}
	j.mu.Lock()
	windows = j.seq
	j.mu.Unlock()
	return records, windows, true
}

// Handler returns the HTTP API handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Register adds a query and starts its shard workers, returning the
// assigned id.
func (s *Server) Register(spec Spec) (string, error) {
	if err := spec.normalize(); err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", fmt.Errorf("server closed")
	}
	id := "q-" + strconv.Itoa(s.nextID)
	s.nextID++
	s.mu.Unlock()

	// Stamp the control-plane connection with this registration's
	// request ID, so the offset lookups newJob issues carry it onto the
	// broker's wire logs. Concurrent registrations may overwrite each
	// other's stamp; the misattribution is benign and short-lived.
	rid := broker.NewTraceID()
	if ts, ok := s.cfg.Cluster.(traceSetter); ok {
		ts.SetTraceID(rid)
	}

	j, err := newJob(id, spec, s, nil)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.stop(false)
		return "", fmt.Errorf("server closed")
	}
	s.queries[id] = j
	s.activeGauge.Set(float64(len(s.queries)))
	s.mu.Unlock()
	j.start()
	s.cfg.Log.Info("registered query", "query", id, "kind", spec.Kind, "window", spec.Window,
		"slide", spec.Slide, "fraction", spec.Fraction, broker.TraceAttr(rid))
	return id, nil
}

// Deregister flushes and removes a query and deletes its checkpoint.
func (s *Server) Deregister(id string) error {
	s.mu.Lock()
	j, ok := s.queries[id]
	if ok {
		delete(s.queries, id)
		s.activeGauge.Set(float64(len(s.queries)))
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("unknown query %q", id)
	}
	j.stop(true)
	if s.cfg.CheckpointDir != "" {
		_ = os.Remove(checkpointPath(s.cfg.CheckpointDir, id))
	}
	// Drop the tenant's metric series so the registry does not grow
	// without bound as queries come and go.
	s.reg.RemoveMatching(metrics.Labels{"query": id})
	s.cfg.Log.Info("deregistered query", "query", id)
	return nil
}

// job looks up a registered query.
func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.queries[id]
	return j, ok
}

// jobs returns the registered queries sorted by id.
func (s *Server) jobs() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.queries))
	for _, j := range s.queries {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].id < out[k].id })
	return out
}

// Close shuts the server down in quiesce-then-flush order: first the
// periodic checkpointer, then the ingest plane — so no delivery is in
// flight — then the jobs (waiting out any catch-up goroutines), and
// only then the final checkpoint of every query plus the shared plane
// offsets. Partial windows are not flushed, so a restarted server
// resumes seamlessly without double-emitting; nothing mid-merge is
// dropped because all merging finished before the checkpoint was cut.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
	s.ing.stop()
	for _, j := range s.jobs() {
		j.stop(false)
	}
	s.checkpointAll()
}

// checkpointLoop checkpoints all queries on a ticker until Close.
func (s *Server) checkpointLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.CheckpointEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
			s.checkpointAll()
		}
	}
}

// checkpointAll persists every query's state plus the shared plane
// offsets to the checkpoint directory. It makes no broker call, so a
// checkpoint taken while the broker is down is as prompt as any other.
func (s *Server) checkpointAll() {
	if s.cfg.CheckpointDir == "" {
		return
	}
	s.mu.Lock()
	closing := s.closed
	s.mu.Unlock()
	if err := saveIngestState(s.cfg.CheckpointDir, s.cfg.Topic, s.ing.offsets()); err != nil {
		s.cfg.Log.Error("checkpoint of ingest offsets failed", "err", err)
	}
	for _, j := range s.jobs() {
		if j.isStopped() && !closing {
			continue // being deregistered; don't resurrect its file
		}
		cf, err := j.checkpoint()
		if err == nil {
			err = saveCheckpoint(s.cfg.CheckpointDir, cf)
		}
		if err != nil {
			s.cfg.Log.Error("checkpoint failed", "query", j.id, "err", err)
			continue
		}
		// A Deregister racing this save may have already removed the
		// file; re-check and undo so a deleted query cannot come back
		// on restart.
		if _, ok := s.job(j.id); !ok {
			_ = os.Remove(checkpointPath(s.cfg.CheckpointDir, j.id))
		}
	}
}

// ---- HTTP API ----

// queryInfo is the wire form of a registered query's status.
type queryInfo struct {
	ID      string  `json:"id"`
	Spec    Spec    `json:"spec"`
	Shards  int     `json:"shards"`
	Windows int64   `json:"windows"`
	Records []int64 `json:"shard_records"`
	Sampled []int64 `json:"shard_sampled"`
}

func (s *Server) info(j *job) queryInfo {
	j.mu.Lock()
	seq := j.seq
	j.mu.Unlock()
	qi := queryInfo{ID: j.id, Spec: j.spec, Shards: len(j.shards), Windows: seq}
	for _, sh := range j.shards {
		qi.Records = append(qi.Records, sh.records.Load())
		qi.Sampled = append(qi.Sampled, sh.sampled.Load())
	}
	return qi
}

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/queries", s.handleRegister)
	mux.HandleFunc("GET /v1/queries", s.handleList)
	mux.HandleFunc("GET /v1/queries/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/queries/{id}", s.handleDelete)
	mux.HandleFunc("GET /v1/queries/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/queries/{id}/stream", s.handleStream)
	s.mux = mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.queries)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"topic":      s.cfg.Topic,
		"partitions": s.parts,
		"queries":    n,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = s.reg.WriteTo(w)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decode spec: %v", err)
		return
	}
	id, err := s.Register(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, ok := s.job(id)
	if !ok { // deregistered concurrently before we could report it
		writeError(w, http.StatusGone, "query %s was deleted", id)
		return
	}
	writeJSON(w, http.StatusCreated, s.info(j))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.jobs()
	out := make([]queryInfo, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, s.info(j))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown query %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.info(j))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.Deregister(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// handleResults returns merged windows with seq > ?since (default -1:
// everything retained). ?wait=500ms long-polls until a result arrives or
// the wait expires.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown query %q", r.PathValue("id"))
		return
	}
	since := int64(-1)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "since: %v", err)
			return
		}
		since = n
	}
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "wait: %v", err)
			return
		}
		wait = d
	}
	results := j.resultsSince(since)
	if len(results) == 0 && wait > 0 {
		// Subscribe before re-checking so a window merged between the
		// first check and the subscription still wakes (or is seen by)
		// this request.
		ch, cancel := j.subscribe()
		defer cancel()
		if results = j.resultsSince(since); len(results) == 0 {
			t := time.NewTimer(wait)
			defer t.Stop()
			select {
			case <-t.C:
			case <-r.Context().Done():
			case <-ch:
			}
			results = j.resultsSince(since)
		}
	}
	// The bytes writeJSON writes for the slice.
	buf := append(make([]byte, 0, 512*len(results)+3), '[')
	var keys []string
	for i := range results {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendWindow(buf, &results[i], &keys)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(buf, "]\n"...))
}

// handleStream streams merged windows as NDJSON: first the retained
// backlog after ?since (default: none), then live results as they merge,
// until the client disconnects or the query is deleted.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown query %q", r.PathValue("id"))
		return
	}
	// last is the Seq of the newest window the client has.
	var last int64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "since: %v", err)
			return
		}
		last = n
	} else {
		j.mu.Lock()
		last = j.seq - 1
		j.mu.Unlock()
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush() // push headers so clients can start reading
	}
	var buf []byte
	var keys []string

	// drain writes every retained window after last, in Seq order, as one
	// write of NDJSON lines, and flushes them together.
	drain := func() bool {
		buf = buf[:0]
		for _, mw := range j.resultsSince(last) {
			buf = append(appendWindow(buf, &mw, &keys), '\n')
			last = mw.Seq
		}
		if _, err := w.Write(buf); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	// The position is fixed before subscribing, so a window emitted at any
	// point after it is in the ring when the backlog or a wake-up drains.
	ch, cancel := j.subscribe()
	defer cancel()
	if !drain() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case _, ok := <-ch:
			if !ok || !drain() {
				return
			}
		}
	}
}
