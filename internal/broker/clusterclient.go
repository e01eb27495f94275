package broker

// ClusterClient is the routing client of the broker cluster: it fetches
// and caches the partition→leader map, routes produce and fetch per
// partition to the leader, follows NotLeader redirects, and fails over
// transparently when a broker dies — so consumers and the serving tier
// work against a cluster with nothing but a list of seed addresses.
//
// It implements the same Cluster interface as the in-process Broker,
// and additionally partitions produce batches on the client side,
// attaching a producer id + per-partition sequence number so a batch
// retried across a leader failover is appended exactly once.

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"strings"
	"sync"
	"time"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/stream"
)

// ClusterClientOptions tunes routing retries and per-member deadlines.
type ClusterClientOptions struct {
	// Retries is the number of retry rounds per partition op after the
	// first attempt (default 8). Each round refreshes the metadata
	// cache, so the budget must cover the cluster's failure-detection
	// time.
	Retries int
	// Backoff is the initial pause between rounds, doubled each round
	// up to 2s with ±50% jitter (default 25ms). Jitter keeps a fleet of
	// clients retrying into a recovering cluster from arriving in
	// lockstep waves.
	Backoff time.Duration
	// DialTimeout bounds TCP connect per member (default
	// DefaultDialTimeout; negative disables).
	DialTimeout time.Duration
	// RequestTimeout bounds every RPC issued to a member (default 30s;
	// negative disables). A blackholed leader
	// turns into a timed-out round that the retry loop reroutes after
	// failover, instead of a produce wedged forever.
	RequestTimeout time.Duration
}

// ClusterClient routes broker ops across cluster members. It is safe
// for concurrent use.
type ClusterClient struct {
	opts  ClusterClientOptions
	seeds []string
	pid   uint64

	// done closes on Close, waking any retry backoff mid-sleep so a
	// closing client never sits out a full backoff round.
	done chan struct{}

	rng   *mrand.Rand // backoff jitter
	rngMu sync.Mutex

	mu     sync.Mutex
	meta   *ClusterMeta
	conns  map[connKey]*client
	prod   map[partKey]*partProducer
	rr     uint64
	trace  uint64 // trace ID stamped on every member connection
	closed bool
}

// clientLanes is how many connections the routing client spreads one
// broker's partition traffic across. A broker serves each connection's
// requests in arrival order, so two partitions sharing a connection
// serialize their full produce cycles — including the leader's
// synchronous replication wait. Separate lanes let same-leader
// partitions overlap, their replicates in flight together on the
// leader's one connection to each follower.
const clientLanes = 4

// connKey names one lane's connection to a member; lane 0 is the
// control path.
type connKey struct {
	addr string
	lane int
}

// partKey names one partition of a topic.
type partKey struct {
	topic     string
	partition int
}

// SetTraceID stamps a trace ID on every current and future member
// connection, so all wire requests this routing client issues carry it.
func (cc *ClusterClient) SetTraceID(id uint64) {
	cc.mu.Lock()
	cc.trace = id
	conns := make([]*client, 0, len(cc.conns))
	for _, c := range cc.conns {
		conns = append(conns, c)
	}
	cc.mu.Unlock()
	for _, c := range conns {
		c.SetTraceID(id)
	}
}

// DialCluster connects to a broker cluster via any reachable seed
// address and loads the initial metadata.
func DialCluster(addrs []string) (*ClusterClient, error) {
	return DialClusterWithOptions(addrs, ClusterClientOptions{})
}

// DialClusterWithOptions is DialCluster with explicit retry tuning.
func DialClusterWithOptions(addrs []string, opts ClusterClientOptions) (*ClusterClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("broker: no cluster addresses")
	}
	if opts.Retries <= 0 {
		opts.Retries = 8
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 25 * time.Millisecond
	}
	if opts.DialTimeout == 0 {
		opts.DialTimeout = DefaultDialTimeout
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = defaultRequestTimeout
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, fmt.Errorf("broker: producer id: %w", err)
	}
	cc := &ClusterClient{
		opts:  opts,
		seeds: append([]string(nil), addrs...),
		pid:   binary.BigEndian.Uint64(b[:]) | 1, // never 0 (0 = dedup off)
		done:  make(chan struct{}),
		rng:   mrand.New(mrand.NewPCG(mrand.Uint64(), mrand.Uint64())),
		conns: make(map[connKey]*client),
		prod:  make(map[partKey]*partProducer),
	}
	if err := cc.refreshMeta(); err != nil {
		cc.Close()
		return nil, err
	}
	return cc, nil
}

// Close closes all member connections and interrupts any retry loop
// sleeping out a backoff round.
func (cc *ClusterClient) Close() error {
	cc.mu.Lock()
	if !cc.closed {
		cc.closed = true
		close(cc.done)
	}
	conns := cc.conns
	cc.conns = make(map[connKey]*client)
	cc.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	return nil
}

// conn returns (dialing if needed) the lane-0 connection to one
// address — the control-path lane (metadata, topic admin, offsets).
func (cc *ClusterClient) conn(addr string) (*client, error) {
	return cc.connLane(addr, 0)
}

// connLane returns (dialing if needed) one lane's connection to an
// address.
func (cc *ClusterClient) connLane(addr string, lane int) (*client, error) {
	key := connKey{addr, lane}
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return nil, errClientClosed
	}
	if c, ok := cc.conns[key]; ok {
		cc.mu.Unlock()
		return c, nil
	}
	cc.mu.Unlock()
	c, err := dial(addr, cc.opts.DialTimeout, cc.opts.RequestTimeout)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	if cc.trace != 0 {
		c.SetTraceID(cc.trace)
	}
	if cc.closed {
		cc.mu.Unlock()
		_ = c.Close()
		return nil, errClientClosed
	}
	if prev, ok := cc.conns[key]; ok {
		cc.mu.Unlock()
		_ = c.Close()
		return prev, nil
	}
	cc.conns[key] = c
	cc.mu.Unlock()
	return c, nil
}

// dropConn discards a broken connection.
func (cc *ClusterClient) dropConn(key connKey) {
	cc.mu.Lock()
	c := cc.conns[key]
	delete(cc.conns, key)
	cc.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// candidateAddrs is every address worth asking for metadata: the seeds
// plus all members of the cached view.
func (cc *ClusterClient) candidateAddrs() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(a string) {
		if a != "" && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	cc.mu.Lock()
	meta := cc.meta
	cc.mu.Unlock()
	for _, a := range cc.seeds {
		add(a)
	}
	if meta != nil {
		for _, n := range meta.Nodes {
			add(n.Addr)
		}
	}
	return out
}

// refreshMeta polls every reachable member and keeps the view with the
// highest epoch, so a deposed leader's stale view cannot mask a
// promotion it has not heard about yet.
func (cc *ClusterClient) refreshMeta() error {
	var best *ClusterMeta
	var lastErr error
	for _, addr := range cc.candidateAddrs() {
		cli, err := cc.conn(addr)
		if err != nil {
			lastErr = err
			continue
		}
		m, err := cli.Meta()
		if err != nil {
			if !isRemoteErr(err) {
				cc.dropConn(connKey{addr: addr})
			}
			lastErr = err
			continue
		}
		// In a one-member view the address just dialed is authoritative:
		// a broker advertising an unroutable listener (0.0.0.0, :9092)
		// stays reachable, and a proxied client stays on its proxy.
		if len(m.Nodes) == 1 {
			m.Nodes[0].Addr = addr
		}
		if best == nil || m.Epoch > best.Epoch {
			best = m
		}
	}
	if best == nil {
		if lastErr == nil {
			lastErr = errors.New("broker: no cluster member reachable")
		}
		return lastErr
	}
	cc.mu.Lock()
	if cc.meta == nil || best.Epoch >= cc.meta.Epoch {
		cc.meta = best
	}
	cc.mu.Unlock()
	return nil
}

// metaView returns the cached metadata, fetching it if absent.
func (cc *ClusterClient) metaView() (*ClusterMeta, error) {
	cc.mu.Lock()
	m := cc.meta
	cc.mu.Unlock()
	if m != nil {
		return m, nil
	}
	if err := cc.refreshMeta(); err != nil {
		return nil, err
	}
	cc.mu.Lock()
	m = cc.meta
	cc.mu.Unlock()
	return m, nil
}

// Meta returns the client's current cluster view (refreshing if it has
// none yet).
func (cc *ClusterClient) Meta() (*ClusterMeta, error) { return cc.metaView() }

// jitter spreads d uniformly over [d/2, 3d/2).
func (cc *ClusterClient) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	cc.rngMu.Lock()
	j := time.Duration(cc.rng.Int64N(int64(d)))
	cc.rngMu.Unlock()
	return d/2 + j
}

// sleep pauses for d, returning false immediately if the client is
// closed (or closes mid-sleep).
func (cc *ClusterClient) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cc.done:
		return false
	}
}

// leaderConn resolves the leader of a partition and returns a
// connection to it. A non-empty hint (from a NotLeader redirect)
// overrides the cached view's leader.
func (cc *ClusterClient) leaderConn(topic string, partition int, hint string) (*client, connKey, error) {
	m, err := cc.metaView()
	if err != nil {
		return nil, connKey{}, err
	}
	ldr := hint
	if ldr == "" || m.addrOf(ldr) == "" {
		ldr = m.LeaderOf(topic, partition)
	}
	if ldr == "" {
		// Topic unknown to the cached view (or no live replica): refresh
		// once before giving up.
		if err := cc.refreshMeta(); err != nil {
			return nil, connKey{}, err
		}
		cc.mu.Lock()
		m = cc.meta
		cc.mu.Unlock()
		if ldr = m.LeaderOf(topic, partition); ldr == "" {
			return nil, connKey{}, fmt.Errorf("%w: %s/%d", errNoReplica, topic, partition)
		}
	}
	addr := m.addrOf(ldr)
	if addr == "" {
		return nil, connKey{}, fmt.Errorf("broker: no address for node %q", ldr)
	}
	// Spread partitions across lanes so same-leader partitions don't
	// serialize behind one connection's request-at-a-time handling. The
	// returned key identifies the lane for dropConn on failure.
	key := connKey{addr, partition % clientLanes}
	cli, err := cc.connLane(key.addr, key.lane)
	return cli, key, err
}

// permanentErrs are broker rejections no retry can fix.
var permanentErrs = []string{
	"unknown topic",
	"partition out of range",
	"offset out of range",
	"topic name too long",
	"topic already exists",
}

func isPermanent(err error) bool {
	msg := err.Error()
	for _, p := range permanentErrs {
		if strings.Contains(msg, p) {
			return true
		}
	}
	return false
}

// withLeaderRetry runs op against the partition leader, retrying on
// NotLeader redirects (following the rejecting node's leader hint
// immediately, without a backoff round), broken connections, and
// transient under-replication until the retry budget runs out.
func (cc *ClusterClient) withLeaderRetry(topic string, partition int, op func(cli *client) error) error {
	return cc.leaderRetry(topic, partition, connKey{}, nil, op)
}

// leaderRetry is the loop behind withLeaderRetry. A non-nil err is
// attempt 0, already made by the caller and failed on lane — Produce
// starts every partition's request before awaiting any, so its attempt
// 0 runs outside the loop; the loop classifies that failure exactly as
// its own and carries on from attempt 1.
func (cc *ClusterClient) leaderRetry(topic string, partition int, lane connKey, err error, op func(cli *client) error) error {
	backoff := cc.opts.Backoff
	hint := ""
	followedHint := false
	for n := 0; n <= cc.opts.Retries; n++ {
		if n > 0 || err == nil {
			if n > 0 && hint == "" {
				if !cc.sleep(cc.jitter(backoff)) {
					return errClientClosed
				}
				if backoff < 2*time.Second {
					backoff *= 2
				}
				_ = cc.refreshMeta() // a stale cache may still route correctly
			}
			var cli *client
			cli, lane, err = cc.leaderConn(topic, partition, hint)
			followedHint = hint != ""
			hint = ""
			if err == nil {
				if err = op(cli); err == nil {
					return nil
				}
			}
		}
		if isPermanent(err) {
			return err
		}
		if isNotLeader(err) {
			// Route straight to the named leader — but at most one hop,
			// so two stale views naming each other cannot ping-pong away
			// the retry budget without ever refreshing.
			if !followedHint {
				hint = leaderHint(err)
			}
		} else if !isRemoteErr(err) {
			// Transport failure: the connection is suspect; reconnect
			// next round (a no-op when none was made). Answered
			// rejections (e.g. transient under-replication) keep the
			// healthy connection.
			cc.dropConn(lane)
		}
	}
	return err
}

// partitionForKey routes a keyed record with the broker's own
// keyPartition, and keyless ones on a client-local round-robin cursor.
func (cc *ClusterClient) partitionForKey(key string, parts int) int {
	if key == "" {
		cc.mu.Lock()
		p := int(cc.rr % uint64(parts))
		cc.rr++
		cc.mu.Unlock()
		return p
	}
	return keyPartition(key, parts)
}

// partProducer is one partition's produce state. mu serializes batches
// from sequence assignment to final outcome, which keeps producer
// sequence numbers arriving at the leader in order — the invariant its
// dedup table relies on (a seq below the newest reads as a duplicate).
type partProducer struct {
	mu  sync.Mutex
	seq uint64 // last assigned; guarded by mu
}

func (cc *ClusterClient) producer(key partKey) *partProducer {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	pp, ok := cc.prod[key]
	if !ok {
		pp = &partProducer{}
		cc.prod[key] = pp
	}
	return pp
}

// produceCall is the scratch of one Produce call, pooled: its flights
// and the router its batch builder asks, made once per produceCall.
type produceCall struct {
	cc      *ClusterClient
	parts   int
	route   func(key string) int
	flights []produceFlight
}

var produceCalls = sync.Pool{New: func() any {
	pc := new(produceCall)
	pc.route = func(key string) int { return pc.cc.partitionForKey(key, pc.parts) }
	return pc
}}

// produceFlight is one partition's share of a Produce call.
type produceFlight struct {
	partition int
	pp        *partProducer // locked until the outcome is final
	seq       uint64
	frames    []byte // a view into the call's batch builder
	count     int
	cli       *client
	lane      connKey // attempt 0's lane and outcome
	call      flight
	err       error
}

// Produce partitions records by key and sends each batch to its
// partition leader with an idempotent (pid, seq) identity: a batch
// retried across redirects or a failover is appended exactly once.
// A pooled column builder frames each partition's share straight from
// the slice; those bytes are what every replica stores.
//
// It is send-all-then-await on the caller's goroutine: in ascending
// partition order it takes each partition's produce lock, assigns the
// seq and writes the request to the cached leader's lane; only then
// does it await the replies, releasing each lock as its outcome
// becomes final. Paired with the leaders' pipelined replication the
// cost of one call is the slowest single partition, not the sum — and
// the caller reads each lane's reply off the connection itself, with no
// goroutine hand-off. A partition whose request could not be sent or was not
// acked keeps its lock and its seq and goes through leaderRetry, its
// failure being that loop's attempt 0. Locks are only ever taken in
// ascending partition order, so concurrent callers cannot deadlock.
func (cc *ClusterClient) Produce(topicName string, recs []Record) (int, error) {
	parts, err := cc.Partitions(topicName)
	if err != nil {
		return 0, err
	}
	pc := produceCalls.Get().(*produceCall)
	pc.cc, pc.parts = cc, parts
	bb := storage.GetBatchBuilder(parts, pc.route)
	defer func() {
		bb.Release() // only now: every retry below ships the builder's bytes
		clear(pc.flights)
		pc.cc, pc.flights = nil, pc.flights[:0]
		produceCalls.Put(pc)
	}()
	for i := range recs {
		bb.Add(&recs[i])
	}
	flights := pc.flights
	for p := 0; p < parts; p++ {
		f := produceFlight{partition: p}
		if f.frames, f.count = bb.Frames(p); f.count == 0 {
			continue
		}
		f.pp = cc.producer(partKey{topicName, p})
		f.pp.mu.Lock()
		f.pp.seq++
		f.seq = f.pp.seq
		if f.cli, f.lane, f.err = cc.leaderConn(topicName, p, ""); f.err == nil {
			f.call, f.err = f.cli.startProducePartitionFrames(topicName, p, cc.pid, f.seq, f.frames, f.count)
		}
		flights = append(flights, f)
	}
	pc.flights = flights
	total := 0
	for i := range flights {
		f := &flights[i]
		if f.err == nil {
			_, f.err = f.cli.awaitCount(f.call)
		}
		if f.err == nil {
			f.pp.mu.Unlock()
			total += f.count
		}
	}
	// Every flight has been awaited; only now retry the failures.
	var firstErr error
	for i := range flights {
		f := &flights[i]
		if f.err == nil {
			continue
		}
		err := cc.leaderRetry(topicName, f.partition, f.lane, f.err, func(cli *client) error {
			_, err := cli.producePartitionFrames(topicName, f.partition, cc.pid, f.seq, f.frames, f.count)
			return err
		})
		f.pp.mu.Unlock()
		if err == nil {
			total += f.count
		} else if firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// Fetch reads records from the partition leader.
func (cc *ClusterClient) Fetch(topicName string, partition int, offset int64, max int) ([]Record, error) {
	var out []Record
	err := cc.withLeaderRetry(topicName, partition, func(cli *client) error {
		recs, err := cli.Fetch(topicName, partition, offset, max)
		if err == nil {
			out = recs
		}
		return err
	})
	return out, err
}

// FetchBatch reads records from the partition leader directly into a
// columnar batch. The batch is reset before every attempt, so a
// mid-fetch failover retry never leaves a partially decoded round.
func (cc *ClusterClient) FetchBatch(topicName string, partition int, offset int64, max int, b *stream.EventBatch) (int, error) {
	var out int
	err := cc.withLeaderRetry(topicName, partition, func(cli *client) error {
		b.Reset()
		n, err := cli.FetchBatch(topicName, partition, offset, max, b)
		if err == nil {
			out = n
		}
		return err
	})
	return out, err
}

// HighWatermark returns the partition's committed watermark (the
// leader's consumer-visible offset frontier).
func (cc *ClusterClient) HighWatermark(topicName string, partition int) (int64, error) {
	var hwm int64
	err := cc.withLeaderRetry(topicName, partition, func(cli *client) error {
		h, err := cli.HighWatermark(topicName, partition)
		if err == nil {
			hwm = h
		}
		return err
	})
	return hwm, err
}

// Partitions returns the topic's partition count from the cached view.
func (cc *ClusterClient) Partitions(topicName string) (int, error) {
	m, err := cc.metaView()
	if err != nil {
		return 0, err
	}
	if t, ok := m.Topics[topicName]; ok {
		return len(t.Partitions), nil
	}
	if err := cc.refreshMeta(); err != nil {
		return 0, err
	}
	cc.mu.Lock()
	m = cc.meta
	cc.mu.Unlock()
	if t, ok := m.Topics[topicName]; ok {
		return len(t.Partitions), nil
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
}

// CreateTopic creates the topic on every live member (partition logs
// live on all nodes; placement decides which hold data). Members that
// already have it are fine, but a live member that cannot be reached
// fails the call: a member silently missing the topic would later have
// every replication to it rejected, so partial creation must be
// retried, not masked.
func (cc *ClusterClient) CreateTopic(name string, partitions int) error {
	m, err := cc.metaView()
	if err != nil {
		return err
	}
	required := make([]string, 0, len(m.Nodes))
	for _, n := range m.Nodes {
		if n.Alive {
			required = append(required, n.Addr)
		}
	}
	if len(required) == 0 {
		return errors.New("broker: no live cluster member")
	}
	for _, addr := range required {
		cli, err := cc.conn(addr)
		if err != nil {
			return fmt.Errorf("create topic on %s: %w", addr, err)
		}
		err = cli.CreateTopic(name, partitions)
		if err != nil && !strings.Contains(err.Error(), "already exists") {
			if !isRemoteErr(err) {
				cc.dropConn(connKey{addr: addr})
			}
			return fmt.Errorf("create topic on %s: %w", addr, err)
		}
	}
	_ = cc.refreshMeta() // pick up the new topic in the cached view
	return nil
}
