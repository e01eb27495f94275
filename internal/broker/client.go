package broker

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"streamapprox/internal/stream"
)

// client is one TCP connection to a broker Server: a lane of the routing
// client, which produces through it, and a cluster member's link to a
// peer. Its exported methods mirror Broker's read and control side. It
// is safe for concurrent use.
//
// The client runs pipelined: every request carries a correlation ID and
// any number of goroutines can have requests in flight on the one
// connection. No goroutine is dedicated to reading: a lone caller reads
// its own reply (see await). On dial it confirms the peer's wire version
// with a hello.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	// trace is the ID stamped on every subsequent request (0 =
	// untraced). Connection-scoped on purpose: the ingest plane owns a
	// dedicated connection per partition pipeline, so the stamp follows
	// the pipeline without widening every method signature.
	trace atomic.Uint64

	// reqTimeout is the connection's default per-request deadline
	// (non-positive = none), fixed at dial; cluster-internal ops that need a
	// tighter bound (heartbeat probes) pass an explicit override.
	reqTimeout time.Duration

	// mu serializes the write+flush of a frame, and guards wdl, the
	// write deadline armed on conn (zero: none).
	mu  sync.Mutex
	wdl time.Time

	// readTok holds a value while no goroutine reads. Only its holder
	// touches br, rdl and the partly read frame.
	readTok  chan struct{}
	rdl      time.Time     // read deadline armed on conn (zero: none)
	hdr      [4]byte       // the frame's length prefix,
	hdrN     int           // bytes of it read,
	body     *frameBuf     // its body once hdr is in,
	bodyN    int           // bytes of that read
	handoffs atomic.Uint64 // replies read by a goroutine not their waiter

	// pending maps in-flight correlation IDs to their waiters.
	pendMu  sync.Mutex
	pending map[uint64]chan *frameBuf
	nextID  uint64
	readErr error
	closed  bool
}

const (
	// DefaultDialTimeout is the TCP connect bound a routing client or a
	// cluster member uses when its options leave DialTimeout zero: a
	// blackholed host (SYNs dropped, no RST) must not stall the caller
	// for the kernel's multi-minute connect timeout.
	DefaultDialTimeout = 3 * time.Second
	// defaultRequestTimeout is the routing client's per-RPC bound when
	// its options leave RequestTimeout zero: generous enough for the
	// largest batch over a congested link, small enough that nothing
	// wedges forever.
	defaultRequestTimeout = 30 * time.Second
)

// dial connects to a broker server. dialTimeout bounds the TCP connect;
// requestTimeout is the connection's default per-request deadline,
// covering frame write, server turnaround and response read. Either
// one non-positive means none. A peer whose hello answers a different
// wire version, or that closes the connection at hello as a peer of
// another version does, is refused with an error naming this version.
func dial(addr string, dialTimeout, requestTimeout time.Duration) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, max(dialTimeout, 0))
	if err != nil {
		return nil, fmt.Errorf("broker dial: %w", err)
	}
	c := &client{
		conn:       conn,
		br:         bufio.NewReaderSize(conn, connBufSize),
		bw:         bufio.NewWriterSize(conn, connBufSize),
		readTok:    make(chan struct{}, 1),
		pending:    make(map[uint64]chan *frameBuf),
		reqTimeout: requestTimeout,
	}
	c.readTok <- struct{}{}
	if err := c.hello(); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("broker hello at wire version %d: %w", wireVersion, err)
	}
	return c, nil
}

// hello confirms the peer's wire version: its answer is a bare header,
// whose version byte is the reply.
func (c *client) hello() error {
	return c.call(c.reqTimeout, func(fb *frameBuf, corr uint64) {
		fb.b = appendBinReqHeader(fb.b[:0], binOpHello, corr, c.trace.Load())
	}, nil)
}

// SetTraceID stamps id on every subsequent request sent over this
// connection (0 clears it).
func (c *client) SetTraceID(id uint64) { c.trace.Store(id) }

// errTimeout builds the deadline error for one timed-out request. It
// wraps os.ErrDeadlineExceeded so callers can distinguish "peer
// stalled" (a transport failure feeding failure detection) from an
// answered rejection; it is NOT a remoteError.
func errTimeout(what string, d time.Duration) error {
	return fmt.Errorf("broker: %s timed out after %v: %w", what, d, os.ErrDeadlineExceeded)
}

// checkTopic guards the binary encoding's uint16 topic-length field.
func checkTopic(topic string) error {
	if len(topic) > 1<<16-1 {
		return fmt.Errorf("broker: topic name too long (%d bytes)", len(topic))
	}
	return nil
}

// errClientClosed is returned for requests on a closed client when the
// underlying cause is unknown.
var errClientClosed = errors.New("broker: client closed")

// Close closes the connection; whoever reads it next fails every
// in-flight request.
func (c *client) Close() error {
	c.pendMu.Lock()
	c.closed = true
	c.pendMu.Unlock()
	return c.conn.Close()
}

// callBinaryT sends one binary request under an explicit deadline:
// start, then await — the one request path. encode must fill fb with a
// complete frame carrying corr. The returned frame is owned by the
// caller, who must putFrame it.
func (c *client) callBinaryT(timeout time.Duration, encode func(fb *frameBuf, corr uint64)) (*frameBuf, error) {
	f, err := c.start(timeout, encode)
	if err != nil {
		return nil, err
	}
	return c.await(f)
}

// flight is one started request: written and flushed, its reply not yet
// awaited. The reply channel is the flight's own until its reply is
// received: only then, with the pending entry gone, does it go back to
// replyChans. A flight that timed out or failed keeps its channel, so
// a reply that arrives after its await timed out has nowhere to go but
// the stray drop.
type flight struct {
	corr     uint64
	ch       chan *frameBuf
	timeout  time.Duration
	deadline time.Time // zero when timeout is 0
}

// replyChans holds the reply channels of flights whose reply was
// received: empty, and in no pending map.
var replyChans = sync.Pool{New: func() any { return make(chan *frameBuf, 1) }}

// timers holds stopped timers for the waits of await, so a wait with a
// deadline allocates none.
var timers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// start registers a correlation ID, encodes and writes the request and
// returns without waiting for the reply, so one goroutine can put
// requests on several connections before it blocks on any. The deadline
// runs from here and covers await's wait; a stalled frame write fails
// within it too (see nextWriteDeadline). A write failure aborts the
// whole connection — a half-written frame corrupts the pipelined stream
// for every other in-flight request.
func (c *client) start(timeout time.Duration, encode func(fb *frameBuf, corr uint64)) (flight, error) {
	f := flight{ch: replyChans.Get().(chan *frameBuf), timeout: timeout}
	c.pendMu.Lock()
	if c.closed || c.readErr != nil {
		err := c.readErr
		c.pendMu.Unlock()
		if err == nil {
			err = errClientClosed
		}
		return flight{}, err
	}
	f.corr = c.nextID
	c.nextID++
	c.pending[f.corr] = f.ch
	c.pendMu.Unlock()

	fb := getFrame()
	encode(fb, f.corr)
	c.mu.Lock()
	now := time.Now()
	if timeout > 0 {
		f.deadline = now.Add(timeout)
	}
	if dl, rearm := nextWriteDeadline(c.wdl, now, timeout); rearm {
		_ = c.conn.SetWriteDeadline(dl)
		c.wdl = dl
	}
	err := writeRawFrame(c.bw, fb.b)
	if err == nil {
		err = c.bw.Flush()
	}
	c.mu.Unlock()
	putFrame(fb)
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = errTimeout("request write", timeout)
		}
		_ = c.conn.Close()
		c.failPending(err)
		return flight{}, err
	}
	return f, nil
}

// await blocks for a started request's reply or its deadline: a reply
// already posted returns at once, else the caller reads for it with the
// read token, or waits for its reply, the token or its deadline. A late
// reply is dropped as a stray. The caller must putFrame the frame.
func (c *client) await(f flight) (*frameBuf, error) {
	select {
	case resp, ok := <-f.ch:
		return c.answered(f, resp, ok)
	case <-c.readTok:
		return c.readFor(f)
	default:
	}
	var expired <-chan time.Time
	if f.timeout > 0 {
		timer := timers.Get().(*time.Timer)
		timer.Reset(time.Until(f.deadline))
		expired = timer.C
		defer func() {
			timer.Stop()
			timers.Put(timer)
		}()
	}
	select {
	case resp, ok := <-f.ch:
		return c.answered(f, resp, ok)
	case <-c.readTok:
		return c.readFor(f)
	case <-expired:
		return nil, c.abandon(f)
	}
}

// answered turns what a flight's channel yielded into await's result: a
// reply, which frees the channel for another flight, or a closed
// channel, which means the connection failed, and failPending says why.
func (c *client) answered(f flight, resp *frameBuf, ok bool) (*frameBuf, error) {
	if ok {
		replyChans.Put(f.ch)
		return resp, nil
	}
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	return nil, c.readErr
}

// abandon forgets a timed-out flight, so its reply becomes a stray, and
// returns its timeout.
func (c *client) abandon(f flight) error {
	c.pendMu.Lock()
	delete(c.pending, f.corr)
	c.pendMu.Unlock()
	return errTimeout("request", f.timeout)
}

// readFor is await holding the read token. It reads until f's reply is
// in, then passes the token on: to a helper goroutine while other
// flights are out, so their replies are read while f's caller gets on
// with its own. The armed read deadline is moved to f's when it would
// fire later, or when it fires first (an earlier holder's); if f's
// passes mid-frame, the next holder resumes the frame.
func (c *client) readFor(f flight) (*frameBuf, error) {
	select {
	case resp, ok := <-f.ch: // posted by the holder before us
		c.readTok <- struct{}{}
		return c.answered(f, resp, ok)
	default:
	}
	rearm := !f.deadline.IsZero() && (c.rdl.IsZero() || f.deadline.Before(c.rdl))
	for {
		if rearm {
			_ = c.conn.SetReadDeadline(f.deadline)
			c.rdl = f.deadline
		}
		fb, more, err := c.readUntil(f.corr)
		timedOut := errors.Is(err, os.ErrDeadlineExceeded)
		if rearm = timedOut && (f.deadline.IsZero() || time.Now().Before(f.deadline)); rearm {
			continue
		}
		if more {
			go func() {
				_, _, _ = c.readUntil(^uint64(0)) // an ID no request carries
				c.readTok <- struct{}{}
			}()
			runtime.Gosched() // the helper, and the waiters it wakes, first
			return c.answered(f, fb, true)
		}
		c.readTok <- struct{}{}
		switch {
		case timedOut:
			return nil, c.abandon(f)
		case fb == nil: // the connection failed
			return c.answered(f, nil, false)
		}
		return c.answered(f, fb, true)
	}
}

// readUntil reads as the token holder, posting replies to their waiters,
// until own's reply is in — returned, with whether flights are still
// out — or none is out. A failure but the deadline fails every flight.
func (c *client) readUntil(own uint64) (*frameBuf, bool, error) {
	for {
		fb, corr, err := c.readReply()
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				c.failPending(err)
			}
			return nil, false, err
		}
		c.pendMu.Lock()
		ch, ok := c.pending[corr]
		delete(c.pending, corr)
		more := len(c.pending) > 0
		c.pendMu.Unlock()
		switch {
		case corr == own:
			return fb, more, nil
		case !ok:
			putFrame(fb) // stray response; drop
		default:
			c.handoffs.Add(1)
			ch <- fb
		}
		if !more {
			return nil, false, nil
		}
	}
}

// readReply reads the next response frame and its correlation ID,
// resuming a frame a timed-out holder left partly read.
func (c *client) readReply() (*frameBuf, uint64, error) {
	if c.body == nil {
		n, err := io.ReadFull(c.br, c.hdr[c.hdrN:])
		if c.hdrN += n; err != nil {
			return nil, 0, err
		}
		size := binary.BigEndian.Uint32(c.hdr[:])
		if size > maxFrame {
			return nil, 0, fmt.Errorf("frame of %d bytes exceeds limit", size)
		}
		c.body = getFrame()
		c.body.b = slices.Grow(c.body.b[:0], int(size))[:size]
	}
	n, err := io.ReadFull(c.br, c.body.b[c.bodyN:])
	if c.bodyN += n; err != nil {
		return nil, 0, err
	}
	fb := c.body
	c.hdrN, c.body, c.bodyN = 0, nil, 0
	corr, ok := corrIDOf(fb.b)
	if !ok {
		putFrame(fb)
		return nil, 0, errors.New("broker: malformed binary response")
	}
	return fb, corr, nil
}

func (c *client) failPending(err error) {
	c.pendMu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	for corr, ch := range c.pending {
		delete(c.pending, corr)
		close(ch)
	}
	c.pendMu.Unlock()
}

// call performs one request under an explicit deadline and hands the
// answer's body to use (nil: the answer has none), before the response
// frame is recycled.
func (c *client) call(timeout time.Duration, encode func(fb *frameBuf, corr uint64), use func(cur wireCursor) error) error {
	fb, err := c.callBinaryT(timeout, encode)
	if err != nil {
		return err
	}
	defer putFrame(fb)
	cur, err := decodeRespHeader(fb)
	if err != nil || use == nil {
		return err
	}
	return use(cur) // by value: a pointer handed to a func value escapes
}

// CreateTopic creates a topic on the remote broker.
func (c *client) CreateTopic(name string, partitions int) error {
	if err := errors.Join(checkTopic(name), checkPartitions(partitions)); err != nil {
		return err
	}
	return c.call(c.reqTimeout, func(fb *frameBuf, corr uint64) {
		fb.b = appendBinReqHeader(fb.b[:0], binOpCreate, corr, c.trace.Load())
		fb.b = appendU16(appendStr(fb.b, name), uint16(max(partitions, 0)))
	}, nil)
}

// awaitCount awaits a started request answered with a record count.
func (c *client) awaitCount(f flight) (int, error) {
	fb, err := c.await(f)
	if err != nil {
		return 0, err
	}
	defer putFrame(fb)
	cur, err := decodeRespHeader(fb)
	if err != nil {
		return 0, err
	}
	return int(cur.u32()), cur.err
}

// callWatermark performs one request answered with an int64 watermark.
func (c *client) callWatermark(encode func(fb *frameBuf, corr uint64)) (int64, error) {
	var hwm int64
	err := c.call(c.reqTimeout, encode, func(cur wireCursor) error {
		hwm = int64(cur.u64())
		return cur.err
	})
	return hwm, err
}

// fetchFrames is the one fetch call behind Fetch and FetchBatch: it
// hands the answered chunk — CRC-verified here, exactly once — to use.
// The frames are a view into the response buffer, recycled when use
// returns.
func (c *client) fetchFrames(topicName string, partition int, offset int64, max int, use func(base int64, count int, frames []byte)) error {
	if err := checkTopic(topicName); err != nil {
		return err
	}
	return c.call(c.reqTimeout, func(fb *frameBuf, corr uint64) {
		encodeFetchFramesReq(fb, corr, c.trace.Load(), topicName, partition, offset, max)
	}, func(cur wireCursor) error {
		base, count, frames, err := decodeFramesResp(&cur)
		if err == nil {
			use(base, count, frames)
		}
		return err
	})
}

// Fetch reads records from a remote partition: the fetched frame chunk
// decoded by framesToRecords, the tier's one frames → records step.
func (c *client) Fetch(topicName string, partition int, offset int64, max int) ([]Record, error) {
	var recs []Record
	err := c.fetchFrames(topicName, partition, offset, max, func(base int64, count int, frames []byte) {
		if count > 0 {
			recs = framesToRecords(frames, count, topicName, partition, base)
		}
	})
	return recs, err
}

// FetchBatch reads records from a remote partition directly into a
// columnar batch: the response's frame chunk is decoded column-wise, no
// intermediate []Record is materialized.
func (c *client) FetchBatch(topicName string, partition int, offset int64, max int, b *stream.EventBatch) (int, error) {
	var n int
	var derr error
	err := c.fetchFrames(topicName, partition, offset, max, func(base int64, count int, frames []byte) {
		n, derr = framesToBatch(frames, count, base, b)
	})
	if err == nil {
		err = derr
	}
	return n, err
}

// HighWatermark returns the remote partition's next write offset.
func (c *client) HighWatermark(topicName string, partition int) (int64, error) {
	if err := checkTopic(topicName); err != nil {
		return 0, err
	}
	return c.callWatermark(func(fb *frameBuf, corr uint64) {
		encodeHWMReq(fb, corr, c.trace.Load(), topicName, partition)
	})
}

// Meta fetches the cluster metadata view of the connected broker.
func (c *client) Meta() (*ClusterMeta, error) {
	var m *ClusterMeta
	err := c.call(c.reqTimeout, func(fb *frameBuf, corr uint64) {
		fb.b = appendBinReqHeader(fb.b[:0], binOpMeta, corr, c.trace.Load())
	}, func(cur wireCursor) (err error) {
		m, err = decodeMeta(&cur)
		return err
	})
	return m, err
}

// ping exchanges failure-detector gossip with a cluster peer: it sends
// node's id and the gossip appendGossip appends, and hands the peer's
// answer to use, read in place from the response frame, which is
// recycled when use returns. The explicit timeout overrides the
// connection default: a probe that cannot answer within a few
// heartbeats IS the failure signal, so waiting the full RPC deadline
// would only slow detection.
func (c *client) ping(timeout time.Duration, node string, appendGossip func([]byte) []byte, use func(gossip)) error {
	return c.call(timeout, func(fb *frameBuf, corr uint64) {
		fb.b = appendBinReqHeader(fb.b[:0], binOpPing, corr, c.trace.Load())
		fb.b = appendGossip(appendStr(fb.b, node))
	}, func(cur wireCursor) error {
		if g := decodeGossip(&cur); cur.err == nil {
			use(g)
		}
		return cur.err
	})
}

// replicaFetch reads one section of committed records from a fellow
// cluster member regardless of partition leadership — the rejoin
// catch-up surface — and hands it to use. The section's frames arrive
// CRC-validated, ready for partition.replicateAppend verbatim, and are a
// view into the response buffer, recycled when use returns.
func (c *client) replicaFetch(sender, topic string, partition int, offset int64, max int, use func(replSection) error) error {
	return c.call(c.reqTimeout, func(fb *frameBuf, corr uint64) {
		encodeRFetchReq(fb, corr, c.trace.Load(), sender, topic, partition, offset, max)
	}, func(cur wireCursor) error {
		var s replSection
		if s.decode(&cur); cur.err == nil {
			return use(s)
		}
		return cur.err
	})
}

// replicate ships one partition's section to a follower and returns the
// follower's resulting high watermark. The explicit trace parameter
// forwards the producer request's trace across the leader→follower hop
// (the connection stamp would attribute every chunk to whichever request
// dialed first).
func (c *client) replicate(trace uint64, epoch int64, sender, topic string, partition int, s *replSection) (int64, error) {
	return c.callWatermark(func(fb *frameBuf, corr uint64) {
		encodeReplicateReq(fb, corr, trace, epoch, sender, topic, partition, s)
	})
}

// replicaHWM reads a member's known committed watermark for a
// partition, leadership-independent.
func (c *client) replicaHWM(sender, topic string, partition int) (int64, error) {
	return c.callWatermark(func(fb *frameBuf, corr uint64) {
		encodeRHWMReq(fb, corr, c.trace.Load(), sender, topic, partition)
	})
}

// producePartitionFrames ships a routing client's freshly encoded frame
// chunk to a partition leader verbatim.
func (c *client) producePartitionFrames(topicName string, partition int, pid, seq uint64, frames []byte, count int) (int, error) {
	f, err := c.startProducePartitionFrames(topicName, partition, pid, seq, frames, count)
	if err != nil {
		return 0, err
	}
	return c.awaitCount(f)
}

// startProducePartitionFrames is the send half of
// producePartitionFrames; awaitCount is the other.
func (c *client) startProducePartitionFrames(topicName string, partition int, pid, seq uint64, frames []byte, count int) (flight, error) {
	if err := checkTopic(topicName); err != nil {
		return flight{}, err
	}
	return c.start(c.reqTimeout, func(fb *frameBuf, corr uint64) {
		encodeProducePartFwdReq(fb, corr, c.trace.Load(), topicName, partition, pid, seq, frames, count)
	})
}
