package broker

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streamapprox/internal/metrics"
)

// The wire protocol frames every message as a 4-byte big-endian length
// followed by a binary payload carrying a correlation ID (see codec.go),
// so many requests can be pipelined on one connection. A client confirms
// the peer's wire version with the "hello" control op at dial. Max frame
// size guards against corrupt length prefixes.
const maxFrame = 64 << 20

// connBufSize is the read buffer and the write buffer each end of a
// connection holds. It batches the frames a pipelined burst carries
// into few syscalls; a frame larger than the buffer passes straight
// through to the socket, so the size bounds no frame, and a larger
// buffer only grows every connection's footprint.
const connBufSize = 16 << 10

// opLabels names each op code the decoder accepts: the label of its
// broker_request_seconds series and of its debug log line. Every served
// request is counted under its own op; one the decoder refuses closes
// the connection before it is observed.
var opLabels = [...]string{
	binOpHWM:          "hwm",
	binOpProducePartF: "producep",
	binOpFetchF:       "fetch",
	binOpRHWMB:        "rhwm",
	binOpReplicate:    "replicate",
	binOpRFetch:       "rfetch",
	binOpHello:        "hello",
	binOpCreate:       "create",
	binOpMeta:         "meta",
	binOpPing:         "ping",
}

// ServerOptions tunes a broker server.
type ServerOptions struct {
	// Metrics, when set, receives a per-op latency histogram at the
	// wire-dispatch layer (broker_request_seconds; its _count is the
	// request count). Instruments are resolved once at startup so the
	// hot path never takes the registry lock.
	Metrics *metrics.Registry
	// Log, when set, emits a structured debug line per traced request —
	// the broker-side leg of following one saproxd pipeline by trace ID.
	// Nil is silent.
	Log *slog.Logger
}

// writeTimeout bounds the writes of each response burst. A blackholed
// client that stops draining cannot pin a handler goroutine (and its
// buffers) forever once its TCP window fills.
const writeTimeout = 30 * time.Second

// nextWriteDeadline returns the write deadline a connection should have
// for a write that must fail within timeout of now (none for a timeout
// of zero or less), given the one armed on it (zero: none), and whether
// the armed one must be moved. Arming costs a timer update in the
// runtime's poller, so an armed deadline is kept while it is at least
// half the timeout away and no later than the timeout asks: a write that
// stalls still fails within the timeout, and at least half of it after
// it began.
func nextWriteDeadline(armed, now time.Time, timeout time.Duration) (time.Time, bool) {
	if timeout <= 0 {
		return time.Time{}, !armed.IsZero()
	}
	want := now.Add(timeout)
	if armed.IsZero() || armed.Sub(now) < timeout/2 || armed.After(want) {
		return want, true
	}
	return armed, false
}

// Server exposes a Broker over TCP. Every op but hello goes through its
// cluster node — a one-member cluster for a single broker — attached
// with AttachNode once the listener is bound: produce and fetch are
// gated by partition leadership, deduplicated and replicated. Until
// then the server refuses every op but hello with a retryable error.
type Server struct {
	broker *Broker
	ln     net.Listener
	node   atomic.Pointer[ClusterNode]
	instr  *serverInstruments
	log    *slog.Logger

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once
}

// errNoNode answers every op but hello on a server whose node is not
// attached yet; clients retry it like any answered rejection.
var errNoNode = errors.New("broker: no cluster node attached yet")

// serverInstruments is the wire-dispatch instrumentation: one latency
// histogram per op code, resolved from the registry once at startup. A
// nil *serverInstruments is valid and free, so the handlers need no
// guards.
type serverInstruments [len(opLabels)]*metrics.Histogram

func newServerInstruments(reg *metrics.Registry) *serverInstruments {
	si := new(serverInstruments)
	for op, label := range opLabels {
		if label != "" {
			si[op] = reg.Histogram("broker_request_seconds",
				"request service latency in seconds, by wire op", metrics.Labels{"op": label})
		}
	}
	return si
}

// observe records one served request of a decoded op.
func (si *serverInstruments) observe(op byte, start time.Time) {
	if si != nil {
		si[op].Observe(time.Since(start).Seconds())
	}
}

// NewTraceID returns a random ID for the request header's trace field.
// It is never zero: zero on the wire means untraced.
func NewTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// TraceAttr is the log attribute every component spells a trace ID
// with, trace=<16 hex digits>, so one grep follows a request from
// saproxd to the partition leader and its followers.
func TraceAttr(id uint64) slog.Attr {
	return slog.String("trace", fmt.Sprintf("%016x", id))
}

// orDiscard returns l, or a logger that writes nothing when l is nil.
func orDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return slog.New(slog.DiscardHandler)
	}
	return l
}

// AttachNode attaches (or replaces) the server's cluster node. Ops
// observe it on their next dispatch.
func (s *Server) AttachNode(n *ClusterNode) { s.node.Store(n) }

// ServeWithOptions starts serving the broker on addr (e.g.
// "127.0.0.1:0") and returns once the listener is bound. Stop the
// server with Close.
func ServeWithOptions(b *Broker, addr string, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("broker listen: %w", err)
	}
	s := &Server{
		broker: b,
		ln:     ln,
		log:    orDiscard(opts.Log),
		conns:  make(map[net.Conn]struct{}),
		done:   make(chan struct{}),
	}
	if opts.Metrics != nil {
		s.instr = newServerInstruments(opts.Metrics)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections, closes live ones, and waits for the
// handler goroutines to exit. Close is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		_ = s.ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			// Transient accept error (EMFILE, ECONNABORTED, ...): back
			// off exponentially instead of spinning a core on a sick
			// listener, and reset once accepts succeed again.
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff < time.Second {
				backoff *= 2
			}
			t := time.NewTimer(backoff)
			select {
			case <-s.done:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		backoff = 0
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReaderSize(conn, connBufSize)
	bw := bufio.NewWriterSize(conn, connBufSize)
	fb := getFrame()
	defer putFrame(fb)
	var req binRequest // every request of the connection decodes here
	var wdl time.Time  // the write deadline armed on conn
	for {
		if err := readFrameInto(br, fb); err != nil {
			return // EOF or broken connection
		}
		// A write deadline covers everything the request's handling
		// writes (including bufio spills mid-handling): a client that
		// stops draining shows up as a write error, not a wedged
		// handler. It is moved only when it would fire too soon.
		if dl, rearm := nextWriteDeadline(wdl, time.Now(), writeTimeout); rearm {
			_ = conn.SetWriteDeadline(dl)
			wdl = dl
		}
		if err := s.handleBinary(&req, fb.b, bw); err != nil {
			return
		}
		// Don't let one oversized frame pin its buffer for the
		// connection's lifetime; drop it and let the next read
		// right-size.
		if cap(fb.b) > maxPooledFrame {
			fb.b = nil
		}
		// Flush only when no further request is already buffered: a
		// pipelining client gets its burst of responses in one write.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// handleBinary serves one request frame, decoded into req, echoing its
// correlation ID. Broker-level failures become error responses.
// Anything the decoder cannot parse — an unknown version byte, a
// retired or unknown op code, a '{'-prefixed lockstep frame, a corrupt
// chunk — closes the connection with nothing appended.
func (s *Server) handleBinary(req *binRequest, payload []byte, bw *bufio.Writer) error {
	err := req.decode(payload)
	if err != nil {
		return err
	}
	start := time.Now()
	out := getFrame()
	defer putFrame(out)
	node := s.node.Load()
	if node == nil && req.op != binOpHello {
		// Bound before its node is attached: the bare log serves nothing,
		// so no produce is appended unreplicated or undeduplicated.
		encodeErrResp(out, req.op, req.corr, errNoNode.Error())
		return writeRawFrame(bw, out.b)
	}
	switch req.op {
	case binOpHWM:
		var hwm int64
		if hwm, err = node.hwm(req.topic, req.partition); err == nil {
			encodeWatermarkResp(out, req.op, req.corr, hwm)
		}
	case binOpProducePartF:
		var n int
		if n, err = node.producePartFrames(req.trace, req.topic, req.partition, req.pid, req.seq, req.frames, req.count); err == nil {
			encodeCountResp(out, req.op, req.corr, n)
		}
	case binOpReplicate:
		var hwm int64
		if hwm, err = node.applyReplicate(req.epoch, req.sender, req.topic, req.partition, req.sec); err == nil {
			encodeWatermarkResp(out, req.op, req.corr, hwm)
		}
	case binOpFetchF:
		// The response is assembled directly in the pooled output buffer
		// — header and base first, then the log's ReadFrames appends the
		// raw segment bytes onto it, then the count placeholder is
		// patched. No record structs, no intermediate buffer, no
		// re-encoding.
		at := beginFetchFramesResp(out, req.corr, req.offset)
		var n int
		if out.b, n, err = node.fetchFrames(req.topic, req.partition, req.offset, req.max, out.b); err == nil {
			patchFrameCount(out, at, n)
		}
	case binOpRFetch:
		err = node.replicaFetch(out, req.corr, req.sender, req.topic, req.partition, req.offset, req.max)
	case binOpRHWMB:
		var hwm int64
		if hwm, err = node.replicaHWM(req.sender, req.topic, req.partition); err == nil {
			encodeWatermarkResp(out, req.op, req.corr, hwm)
		}
	case binOpHello:
		encodeOKResp(out, req.op, req.corr)
	case binOpCreate:
		if err = s.broker.CreateTopic(req.topic, req.parts); err == nil {
			encodeOKResp(out, req.op, req.corr)
		}
	case binOpMeta:
		encodeOKResp(out, req.op, req.corr)
		out.b = node.appendMeta(out.b)
	case binOpPing:
		encodeOKResp(out, req.op, req.corr)
		out.b = node.handlePing(req.sender, req.gossip, out.b)
	}
	if err != nil {
		encodeErrResp(out, req.op, req.corr, err.Error())
	}
	s.instr.observe(req.op, start)
	if req.trace != 0 && s.log.Enabled(context.Background(), slog.LevelDebug) {
		s.log.Debug("wire request",
			"op", opLabels[req.op], TraceAttr(req.trace),
			"topic", req.topic, "partition", req.partition,
			"records", req.count, "dur_us", time.Since(start).Microseconds())
	}
	return writeRawFrame(bw, out.b)
}
