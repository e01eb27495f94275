package broker

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// scriptedPeer is a broker stand-in for client tests: it accepts one
// connection, answers the dial's hello, and hands every later request to
// script, which writes replies to w when and how it likes. script must
// range over reqs: it is closed once the client hangs up.
func scriptedPeer(t *testing.T, script func(w io.Writer, reqs <-chan binRequest)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		_ = ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Room for every request a burst of callers has in flight, so a
		// script that drains reqs sees the whole burst at once.
		reqs := make(chan binRequest, 64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			script(conn, reqs)
		}()
		defer close(reqs)
		br := bufio.NewReader(conn)
		in, out := getFrame(), getFrame()
		for readFrameInto(br, in) == nil {
			req, err := decodeBinRequest(in.b)
			if err != nil {
				return
			}
			if req.op == binOpHello { // before any other request
				encodeOKResp(out, req.op, req.corr)
				_ = writeRawFrame(conn, out.b)
				continue
			}
			reqs <- req
		}
	}()
	return ln.Addr().String()
}

// shuffledReplies is a peer script answering each burst of watermark
// requests in random order with the requested partition as the
// watermark, and never answering a partition withheld picks.
func shuffledReplies(withheld func(partition int) bool) func(io.Writer, <-chan binRequest) {
	return func(w io.Writer, reqs <-chan binRequest) {
		rng := rand.New(rand.NewPCG(1, 2))
		bw := bufio.NewWriter(w)
		out := getFrame()
		var burst []binRequest
		for req := range reqs {
			burst = append(burst[:0], req)
		drain:
			for {
				select {
				case r, ok := <-reqs:
					if !ok {
						break drain
					}
					burst = append(burst, r)
				default:
					break drain
				}
			}
			rng.Shuffle(len(burst), func(i, j int) { burst[i], burst[j] = burst[j], burst[i] })
			for _, r := range burst {
				if !withheld(r.partition) {
					encodeWatermarkResp(out, r.op, r.corr, int64(r.partition))
					_ = writeRawFrame(bw, out.b)
				}
			}
			_ = bw.Flush()
		}
	}
}

// hwmT is HighWatermark under an explicit deadline.
func hwmT(c *client, partition int, timeout time.Duration) (int64, error) {
	fb, err := c.callBinaryT(timeout, func(fb *frameBuf, corr uint64) {
		encodeHWMReq(fb, corr, 0, "t", partition)
	})
	if err != nil {
		return 0, err
	}
	defer putFrame(fb)
	cur, err := decodeRespHeader(fb)
	if err != nil {
		return 0, err
	}
	return int64(cur.u64()), cur.err
}

// TestClientTimeoutMidFrameKeepsStream pins that a deadline passing in
// the middle of a reply never corrupts the stream. The peer trickles
// one reply a byte at a time across its waiter's deadline: that waiter
// times out holding part of a frame, a sibling flight on the same
// connection — answered after it — still gets its reply intact, and a
// later call works.
func TestClientTimeoutMidFrameKeepsStream(t *testing.T) {
	const trickle = 20 * time.Millisecond
	addr := scriptedPeer(t, func(w io.Writer, reqs <-chan binRequest) {
		out := getFrame()
		for req := range reqs {
			encodeWatermarkResp(out, req.op, req.corr, int64(req.partition))
			frame := binary.BigEndian.AppendUint32(nil, uint32(len(out.b)))
			frame = append(frame, out.b...)
			if req.partition != 0 {
				_, _ = w.Write(frame)
				continue
			}
			for i := range frame {
				_, _ = w.Write(frame[i : i+1])
				time.Sleep(trickle)
			}
		}
	})
	cli, err := dial(addr, DefaultDialTimeout, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	hwm := func(p int) func(fb *frameBuf, corr uint64) {
		return func(fb *frameBuf, corr uint64) { encodeHWMReq(fb, corr, 0, "t", p) }
	}
	const short = 5 * trickle // a handful of the reply's 23 bytes
	trickled, err := cli.start(short, hwm(0))
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := cli.start(5*time.Second, hwm(1))
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	_, err = cli.await(trickled)
	expectDeadline(t, err, time.Since(begin), short+time.Second)
	if cli.hdrN == 0 && cli.body == nil {
		t.Fatal("the deadline passed before any of the reply arrived; the test needs it mid-frame")
	}
	fb, err := cli.await(sibling)
	if err != nil {
		t.Fatalf("sibling of a flight that timed out mid-frame: %v", err)
	}
	cur, err := decodeRespHeader(fb)
	if got := cur.u64(); err != nil || cur.err != nil || got != 1 {
		t.Fatalf("sibling's reply: hwm %d, %v, %v (stream corrupted?)", got, err, cur.err)
	}
	putFrame(fb)
	if got, err := cli.HighWatermark("t", 2); err != nil || got != 2 {
		t.Fatalf("call after a mid-frame timeout: hwm %d, %v", got, err)
	}
}

// TestClientConcurrentCallersGetOwnReplies drives one connection from 8
// goroutines × 200 calls against a peer that answers in shuffled order
// and withholds some replies: each call gets its own reply or its own
// timeout. Then callers left pending on withheld replies all fail at
// Close, and no goroutine outlives the client.
func TestClientConcurrentCallersGetOwnReplies(t *testing.T) {
	const callers, calls = 8, 200
	before := runtime.NumGoroutine()
	withheld := func(p int) bool { return p%13 == 0 }
	addr := scriptedPeer(t, shuffledReplies(withheld))
	cli, err := dial(addr, DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				p := 1 + g*calls + i
				timeout := 10 * time.Second
				if withheld(p) {
					timeout = 30 * time.Millisecond
				}
				got, err := hwmT(cli, p, timeout)
				switch {
				case withheld(p) && !errors.Is(err, os.ErrDeadlineExceeded):
					t.Errorf("withheld call %d: hwm %d, %v; want its own timeout", p, got, err)
				case !withheld(p) && (err != nil || got != int64(p)):
					t.Errorf("call %d: hwm %d, %v; want its own reply", p, got, err)
				}
			}
		}()
	}
	wg.Wait()

	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			_, err := hwmT(cli, 13*(g+1), time.Minute)
			errs <- err
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		cli.pendMu.Lock()
		n := len(cli.pending)
		cli.pendMu.Unlock()
		if n == callers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d withheld calls pending", n, callers)
		}
	}
	_ = cli.Close()
	for g := 0; g < callers; g++ {
		select {
		case err := <-errs:
			if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("pending call at Close: %v; want the connection's failure", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a pending call outlived Close")
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before dial", runtime.NumGoroutine(), before)
		}
	}
}

// TestSoleWaiterReadsItsOwnReply pins where replies are read: a lone
// caller reads its own, so sequential round trips hand none off, while
// concurrent callers on one connection read each other's.
func TestSoleWaiterReadsItsOwnReply(t *testing.T) {
	addr := scriptedPeer(t, shuffledReplies(func(int) bool { return false }))
	cli, err := dial(addr, DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 1000; i++ {
		if got, err := cli.HighWatermark("t", i); err != nil || got != int64(i) {
			t.Fatalf("call %d: hwm %d, %v", i, got, err)
		}
	}
	if n := cli.handoffs.Load(); n != 0 {
		t.Fatalf("%d of 1000 sequential replies read by another goroutine, want 0", n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := cli.HighWatermark("t", i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if cli.handoffs.Load() == 0 {
		t.Fatal("no reply handed off among 8 concurrent callers")
	}
}
