package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/server"
)

const topicName = "bench"

// stallAfter is how long the pipeline may show no progress before the
// run is abandoned as failed.
const stallAfter = 60 * time.Second

// maxHold is the longest the lead cap holds the producer back before it
// lets one batch through (see runProducer).
const maxHold = 25 * time.Millisecond

// observed is one merged window as it arrived on a query's NDJSON
// stream.
type observed struct {
	mw server.MergedWindow
	at time.Time
}

// queryState is one registered query and everything its result stream
// delivered.
type queryState struct {
	id   string
	spec server.Spec
	late bool

	registeredAt time.Time
	registerMS   float64
	// historyEnd is the event time the producer had reached when a late
	// query registered: replaying up to it is the query's catch-up.
	historyEnd int64

	// Guarded by pipeline.mu.
	windows []observed
	maxEnd  int64 // newest window end observed, unix nanos
	inRange int   // expected windows observed so far
	body    io.Closer
}

// pipeline is one set-up instance of a served workload: brokers, the
// serving tier behind a real HTTP listener, registered queries with open
// result streams, and the single producer goroutine.
type pipeline struct {
	wl     *workload
	src    *source
	oracle *oracle
	plan   plan
	tr     *tracer
	fs     *fetchStats // nil unless traced

	brokers []*broker.Broker
	servers []*broker.Server
	nodes   []*broker.ClusterNode
	addrs   []string
	client  *broker.ClusterClient // nil for the in-process broker
	produce func(recs []broker.Record) (int, error)

	srv     *server.Server
	httpSrv *http.Server
	httpCli *http.Client
	baseURL string

	warmAt int64 // event time of the first measured event
	endAt  int64 // event time of the first tail event

	mu      sync.Mutex
	cond    *sync.Cond
	queries []*queryState
	failure error

	closed   sync.Once
	readers  sync.WaitGroup // result-stream readers
	bg       sync.WaitGroup // producer, late registrar, ticker
	ctx      context.Context
	cancel   context.CancelFunc
	prodDone chan struct{}

	// Producer-side records, written by the producer goroutine only and
	// read after prodDone closes.
	sendAt     []time.Time // per batch: when it was handed to produce
	prodSpan   []int       // per batch: its produce span (traced runs)
	ackMS      []float64   // per measured batch: call (or due time) → ack
	lateMS     []float64   // paced, per measured batch: how late the send started
	genBusy    time.Duration
	prodBusy   time.Duration
	prodCalls  int
	prodFailed int
	attempted  int
	lateGate   chan struct{} // closed when lateAt of the measured events are in
}

func (p *pipeline) fail(err error) {
	p.mu.Lock()
	if p.failure == nil {
		p.failure = err
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// setUp builds the input and stands the whole pipeline up, returning
// once the warm-up has passed through to the result end.
func setUp(wl *workload, seed uint64, seconds float64, tr *tracer) (*pipeline, error) {
	p := &pipeline{wl: wl, tr: tr, prodDone: make(chan struct{}), lateGate: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	p.ctx, p.cancel = context.WithCancel(context.Background())
	if tr != nil {
		p.fs = &fetchStats{}
	}
	p.src = wl.source(seed)
	p.oracle = newOracle(p.src, wl.edges)
	p.plan = wl.planFor(p.src, seconds)
	if err := p.startBrokers(); err != nil {
		p.close()
		return nil, err
	}
	if err := p.startServer(); err != nil {
		p.close()
		return nil, err
	}
	if wl.paced {
		// Event time is wall-clock time from here on: an event's stamp is
		// the instant it was due to be sent.
		p.src.origin = time.Now().Add(20 * time.Millisecond).UnixNano()
	}
	p.warmAt = p.src.timeOf(p.plan.warm)
	p.endAt = p.src.timeOf(p.plan.warm + p.plan.measured)
	for _, sp := range wl.queries {
		if _, err := p.register(sp, false); err != nil {
			p.close()
			return nil, err
		}
	}
	p.bg.Add(2)
	go p.tick()
	go p.runProducer()
	if len(wl.late) > 0 {
		p.bg.Add(1)
		go p.registerLate()
	}
	if err := p.waitFor(func() bool { return p.progressLocked() >= p.warmAt }); err != nil {
		p.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return p, nil
}

func (p *pipeline) startBrokers() error {
	wl := p.wl
	if wl.brokers == 0 {
		b := broker.New()
		p.brokers = append(p.brokers, b)
		if err := b.CreateTopic(topicName, wl.partitions); err != nil {
			return err
		}
		p.produce = func(recs []broker.Record) (int, error) { return b.Produce(topicName, recs) }
		return nil
	}
	peers := make(map[string]string, wl.brokers)
	ids := make([]string, wl.brokers)
	for i := range ids {
		b := broker.New()
		srv, err := broker.ServeWithOptions(b, "127.0.0.1:0", broker.ServerOptions{Metrics: b.Metrics()}) // as brokerd does
		if err != nil {
			b.Close()
			return err
		}
		ids[i] = fmt.Sprintf("n%d", i)
		peers[ids[i]] = srv.Addr()
		p.brokers = append(p.brokers, b)
		p.servers = append(p.servers, srv)
		p.addrs = append(p.addrs, srv.Addr())
	}
	for i, id := range ids {
		// No fault is injected here, so the failure detector only has false
		// positives to offer: a peer is given ten seconds of silence before
		// it is declared dead, where a co-tenant freezing the VM for one
		// would otherwise move leadership mid-run.
		node, err := broker.NewClusterNode(p.brokers[i], broker.NodeConfig{ID: id, Peers: peers,
			Replicas: 2, MinISR: 2, HeartbeatEvery: time.Second, FailAfter: 10})
		if err != nil {
			return err
		}
		node.RegisterMetrics(p.brokers[i].Metrics())
		p.servers[i].AttachNode(node)
		p.nodes = append(p.nodes, node)
	}
	for _, n := range p.nodes {
		n.Start()
	}
	cc, err := broker.DialCluster(p.addrs)
	if err != nil {
		return err
	}
	p.client = cc
	if err := cc.CreateTopic(topicName, wl.partitions); err != nil {
		return err
	}
	p.produce = func(recs []broker.Record) (int, error) { return cc.Produce(topicName, recs) }
	return nil
}

func (p *pipeline) startServer() error {
	cfg := server.Config{Topic: topicName, PollBackoff: p.wl.pollBackoff}
	if p.client != nil {
		cfg.Cluster = p.wrap(p.client)
		cfg.DialShard = func() (broker.Cluster, error) {
			cc, err := broker.DialCluster(p.addrs)
			if err != nil {
				return nil, err
			}
			return p.wrap(cc), nil
		}
	} else {
		cfg.Cluster = p.wrap(p.brokers[0])
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	p.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	p.httpSrv = &http.Server{Handler: srv.Handler()}
	go func() { _ = p.httpSrv.Serve(ln) }()
	p.baseURL = "http://" + ln.Addr().String()
	p.httpCli = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	return nil
}

// wrap puts the counting, span-recording fetch wrapper around a broker
// connection in a traced run; an untraced run hands the server the bare
// connection.
func (p *pipeline) wrap(c broker.Cluster) broker.Cluster {
	if p.tr == nil {
		return c
	}
	return &tracedCluster{Cluster: c, tr: p.tr, st: p.fs}
}

// register posts a query over the HTTP API and opens its result stream
// from the first window on.
func (p *pipeline) register(sp server.Spec, late bool) (*queryState, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := p.httpCli.Post(p.baseURL+"/v1/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("register %s: %w", sp.Kind, err)
	}
	var info struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&info)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("register %s: HTTP %d: %v", sp.Kind, resp.StatusCode, err)
	}
	end := time.Now()
	q := &queryState{id: info.ID, spec: sp, late: late, registeredAt: end, registerMS: msSince(start, end),
		maxEnd: p.src.timeOf(0)}
	p.tr.add("register", start, end, -1, -1, nil)

	req, err := http.NewRequestWithContext(p.ctx, http.MethodGet, p.baseURL+"/v1/queries/"+q.id+"/stream?since=-1", nil)
	if err != nil {
		return nil, err
	}
	stream, err := p.httpCli.Do(req)
	if err != nil {
		return nil, fmt.Errorf("stream %s: %w", q.id, err)
	}
	if stream.StatusCode != http.StatusOK {
		_ = stream.Body.Close()
		return nil, fmt.Errorf("stream %s: HTTP %d", q.id, stream.StatusCode)
	}
	q.body = stream.Body
	p.mu.Lock()
	p.queries = append(p.queries, q)
	p.mu.Unlock()
	p.readers.Add(1)
	go p.read(q, stream.Body)
	return q, nil
}

// read is a query's result-stream reader: it stamps every merged window
// with its arrival time and publishes the query's progress.
func (p *pipeline) read(q *queryState, body io.Reader) {
	defer p.readers.Done()
	first, last := p.expected(q.spec)
	br := bufio.NewReaderSize(body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 1 {
			var mw server.MergedWindow
			if jerr := json.Unmarshal(line, &mw); jerr != nil {
				p.fail(fmt.Errorf("query %s: decode result: %w", q.id, jerr))
				return
			}
			at := time.Now()
			end := mw.End.UnixNano()
			p.mu.Lock()
			q.windows = append(q.windows, observed{mw: mw, at: at})
			if end > q.maxEnd {
				q.maxEnd = end
			}
			if end >= first && end <= last {
				q.inRange++
			}
			p.mu.Unlock()
			p.cond.Broadcast()
		}
		if err != nil {
			return // stream closed: end of run, or the failure is recorded elsewhere
		}
	}
}

// expectedEnds returns the first and last window end a query over src
// must deliver when the measured events stop at event time endAt: every
// window that contains a produced event and ends no later than the first
// slide boundary at or after endAt.
func expectedEnds(src *source, sp server.Spec, endAt int64) (first, last int64) {
	truncate := func(t int64) int64 { return time.Unix(0, t).UTC().Truncate(sp.Slide).UnixNano() }
	last = truncate(endAt)
	if last < endAt {
		last += int64(sp.Slide)
	}
	return truncate(src.timeOf(0)) + int64(sp.Slide), last
}

func (p *pipeline) expected(sp server.Spec) (first, last int64) {
	return expectedEnds(p.src, sp, p.endAt)
}

func (p *pipeline) expectedCount(sp server.Spec) int {
	first, last := p.expected(sp)
	return int((last-first)/int64(sp.Slide)) + 1
}

// progressLocked is the event time up to which every always-attached
// query has delivered results: a window ending at E on the stream means
// every event before E is fully processed. Callers hold p.mu.
func (p *pipeline) progressLocked() int64 {
	min := int64(-1)
	for _, q := range p.queries {
		if q.late {
			continue
		}
		if min < 0 || q.maxEnd < min {
			min = q.maxEnd
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// waitFor blocks until cond holds (checked under p.mu), the run fails,
// or nothing has moved for stallAfter.
func (p *pipeline) waitFor(cond func() bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen, since := p.movedLocked(), time.Now()
	for !cond() {
		if p.failure != nil {
			return p.failure
		}
		if err := p.ctx.Err(); err != nil {
			return err
		}
		if m := p.movedLocked(); m != seen {
			seen, since = m, time.Now()
		} else if time.Since(since) > stallAfter {
			return fmt.Errorf("no result for %v", stallAfter)
		}
		p.cond.Wait()
	}
	return p.failure
}

// movedLocked is a progress fingerprint for the stall detector.
func (p *pipeline) movedLocked() int {
	n := 0
	for _, q := range p.queries {
		n += len(q.windows)
	}
	return n
}

// tick wakes waiters periodically so they can notice a stall or a hold
// that has lasted long enough.
func (p *pipeline) tick() {
	defer p.bg.Done()
	t := time.NewTicker(maxHold / 4)
	defer t.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-t.C:
			p.cond.Broadcast()
		}
	}
}

// runProducer is the workload's one producer goroutine: warm-up,
// measured events and tail in one uninterrupted stream.
func (p *pipeline) runProducer() {
	defer p.bg.Done()
	defer close(p.prodDone)
	wl := p.wl
	gen := newRecordGen(p.src, wl.batch, wl.swapPairs, wl.partitions)
	batches := int(p.plan.total() / int64(wl.batch))
	firstMeasured := int(p.plan.warm / int64(wl.batch))
	lastMeasured := int((p.plan.warm + p.plan.measured) / int64(wl.batch))
	lateBatch := firstMeasured + int(wl.lateAt*float64(lastMeasured-firstMeasured))
	leadNS := p.src.timeOf(int64(leadBatches*wl.batch)) - p.src.timeOf(0)
	p.sendAt = make([]time.Time, 0, batches)
	gateOpen := false
	for k := 0; k < batches; k++ {
		if p.ctx.Err() != nil {
			return
		}
		first := int64(k) * int64(wl.batch)
		measured := k >= firstMeasured && k < lastMeasured
		var due time.Time
		if wl.paced {
			// A batch is due at the instant its events are stamped with.
			due = time.Unix(0, p.src.timeOf(first))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		} else {
			// The lead cap, with a trickle: a producer held back longer than
			// maxHold sends one batch anyway. The serving tier punctuates a
			// partition that has been silent for 250 ms of wall clock: a
			// marker queued behind the partition's undelivered batches, which
			// when a slow query finally reaches it lifts that shard's
			// watermark to the newest event time any other shard has applied
			// by then — past the partition's own batches still queued behind
			// the marker, which are then dropped as late (ROADMAP open item
			// 3). Never letting a partition fall silent that long keeps a
			// noisy machine from provoking it.
			limit := p.src.timeOf(first) - leadNS
			held := time.Now()
			err := p.waitFor(func() bool { return p.progressLocked() >= limit || time.Since(held) > maxHold })
			if err != nil {
				return
			}
		}
		t0 := time.Now()
		recs := gen.nextBatch()
		t1 := time.Now()
		n, err := p.produce(recs)
		t2 := time.Now()
		p.sendAt = append(p.sendAt, t1)
		if measured {
			p.attempted++
			p.genBusy += t1.Sub(t0)
			p.prodBusy += t2.Sub(t1)
			p.prodCalls++
			from := t1
			if wl.paced {
				from = due
				p.lateMS = append(p.lateMS, msSince(due, t0))
			}
			p.ackMS = append(p.ackMS, msSince(from, t2))
		}
		if p.tr != nil {
			p.prodSpan = append(p.prodSpan, p.tr.add("produce", t1, t2, -1, -1,
				map[string]float64{"batch": float64(k), "rows": float64(len(recs))}))
		}
		if err != nil || n != len(recs) {
			if measured {
				p.prodFailed++
			}
			p.fail(fmt.Errorf("produce batch %d: appended %d of %d: %v", k, n, len(recs), err))
			return
		}
		if !gateOpen && k >= lateBatch {
			gateOpen = true
			close(p.lateGate)
		}
	}
}

// registerLate registers the late queries once the producer opens the
// gate, while live writes continue.
func (p *pipeline) registerLate() {
	defer p.bg.Done()
	select {
	case <-p.lateGate:
	case <-p.ctx.Done():
		return
	}
	for _, sp := range p.wl.late {
		p.mu.Lock()
		reached := p.progressLocked()
		p.mu.Unlock()
		q, err := p.register(sp, true)
		if err != nil {
			p.fail(err)
			return
		}
		q.historyEnd = reached
	}
}

// allDeliveredLocked reports whether every query (late ones included)
// has delivered every expected window. Callers hold p.mu.
func (p *pipeline) allDeliveredLocked() bool {
	if len(p.queries) < len(p.wl.queries)+len(p.wl.late) {
		return false
	}
	for _, q := range p.queries {
		if q.inRange < p.expectedCount(q.spec) {
			return false
		}
	}
	return true
}

// awaitConsumed waits until every query's delivered-record counter has
// reached the number of records produced (the tail is still in flight
// when the last expected window arrives).
func (p *pipeline) awaitConsumed() error {
	deadline := time.Now().Add(stallAfter)
	for {
		done := true
		for _, q := range p.queries {
			records, _, ok := p.srv.Stats(q.id)
			if !ok {
				return fmt.Errorf("query %s vanished", q.id)
			}
			if records < p.plan.total() {
				done = false
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("queries did not consume every produced record")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close tears the pipeline down: producer and result streams first,
// then the serving tier, then the brokers. It returns when every
// goroutine the pipeline started has ended.
func (p *pipeline) close() { p.closed.Do(p.tearDown) }

func (p *pipeline) tearDown() {
	p.cancel() // ends the stream requests, and with them the readers
	p.cond.Broadcast()
	p.bg.Wait()
	p.mu.Lock()
	for _, q := range p.queries {
		_ = q.body.Close()
	}
	p.mu.Unlock()
	p.readers.Wait()
	if p.httpSrv != nil {
		_ = p.httpSrv.Close()
		p.httpCli.CloseIdleConnections()
	}
	if p.srv != nil {
		p.srv.Close()
	}
	if p.client != nil {
		_ = p.client.Close()
	}
	for _, n := range p.nodes {
		n.Close()
	}
	for _, s := range p.servers {
		s.Close()
	}
	for _, b := range p.brokers {
		b.Close()
	}
}
