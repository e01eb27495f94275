package broker

import (
	"bufio"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"streamapprox/internal/faults"
)

// proxiedServer starts a broker server with a chaos proxy in front and
// returns the proxy (dial p.Addr() to go through it).
func proxiedServer(t *testing.T) *faults.Proxy {
	t.Helper()
	p, err := faults.NewProxy("127.0.0.1:0", serveMember(t, New(), ServerOptions{}).Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// expectDeadline asserts err is the client timeout (wrapping
// os.ErrDeadlineExceeded) and that it surfaced within bound.
func expectDeadline(t *testing.T, err error, took, bound time.Duration) {
	t.Helper()
	if err == nil {
		t.Fatal("RPC through blackhole succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error, got: %v", err)
	}
	if took > bound {
		t.Fatalf("timeout took %v, want <= %v", took, bound)
	}
}

// TestClientTimeoutPipelined blackholes a connection and
// asserts the RPC fails with the deadline error within its budget
// instead of blocking forever.
func TestClientTimeoutPipelined(t *testing.T) {
	p := proxiedServer(t)
	cli, err := dial(p.Addr(), DefaultDialTimeout, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}

	p.Set(faults.Both, faults.Faults{Blackhole: true})
	start := time.Now()
	_, err = cli.HighWatermark("t", 0)
	expectDeadline(t, err, time.Since(start), 2*time.Second)

	// The timeout poisons the pipelined connection (a half-delivered
	// frame cannot be resynchronized): later calls fail fast, they do
	// not hang for another timeout.
	start = time.Now()
	if _, err := cli.HighWatermark("t", 0); err == nil {
		t.Fatal("call on timed-out connection succeeded")
	} else if took := time.Since(start); took > time.Second {
		t.Fatalf("call on dead connection took %v", took)
	}
}

// TestPingProbeTimeout exercises the per-op override: a heartbeat probe
// carries its own (short) deadline regardless of the connection
// default, so failure detection keeps its cadence even when the
// default RPC budget is generous.
func TestPingProbeTimeout(t *testing.T) {
	p := proxiedServer(t)
	cli, err := dial(p.Addr(), DefaultDialTimeout, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	p.Set(faults.Both, faults.Faults{Blackhole: true})
	start := time.Now()
	err = cli.ping(200*time.Millisecond, "n1", gossipOf(1, nil), func(gossip) {})
	expectDeadline(t, err, time.Since(start), 2*time.Second)
}

// TestClientTimeoutIsTransportError pins the classification contract:
// a timeout must NOT look like an answered rejection (remoteError),
// because cluster failure accounting counts only transport errors —
// that is what ejects a stalled follower from the ISR.
func TestClientTimeoutIsTransportError(t *testing.T) {
	p := proxiedServer(t)
	cli, err := dial(p.Addr(), DefaultDialTimeout, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	p.Set(faults.Both, faults.Faults{Blackhole: true})
	_, err = cli.HighWatermark("t", 0)
	if err == nil {
		t.Fatal("expected timeout")
	}
	if isRemoteErr(err) {
		t.Fatalf("timeout classified as remote (answered) error: %v", err)
	}
}

// TestClientAwaitDeadlineAbandonsOnlyItsWaiter pins the start/await
// contract Produce is built on. Three requests are started on ONE
// connection; the peer sits on the first. Its await times out at the
// deadline set when it was started; the other two replies — which
// arrived in the meantime, and whose own deadlines have passed by the
// time they are awaited — are still consumed; the late reply is dropped
// by correlation ID and the stream stays usable.
func TestClientAwaitDeadlineAbandonsOnlyItsWaiter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{}) // closed to let the held reply go out
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		in, out, held := getFrame(), getFrame(), getFrame()
		for {
			if err := readFrameInto(br, in); err != nil {
				return
			}
			req, err := decodeBinRequest(in.b)
			if err != nil {
				return
			}
			switch {
			case req.op == binOpHello: // the dial's
				encodeOKResp(out, req.op, req.corr)
			case req.partition == 0: // sat on until released
				encodeWatermarkResp(held, req.op, req.corr, 0)
				continue
			default:
				encodeWatermarkResp(out, req.op, req.corr, int64(req.partition))
			}
			if req.partition == 3 { // the probe after the timeout: late reply first
				<-release
				_ = writeRawFrame(conn, held.b)
			}
			if writeRawFrame(conn, out.b) != nil {
				return
			}
		}
	}()

	const timeout = 200 * time.Millisecond
	cli, err := dial(ln.Addr().String(), DefaultDialTimeout, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	hwm := func(p int) func(fb *frameBuf, corr uint64) {
		return func(fb *frameBuf, corr uint64) { encodeHWMReq(fb, corr, 0, "t", p) }
	}
	begin := time.Now()
	var flights [3]flight
	for p := range flights {
		if flights[p], err = cli.start(timeout, hwm(p)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = cli.await(flights[0])
	expectDeadline(t, err, time.Since(begin), timeout+time.Second)
	for p := 1; p < 3; p++ {
		fb, err := cli.await(flights[p]) // its deadline has passed; its reply has not
		if err != nil {
			t.Fatalf("await of answered flight %d after a sibling timed out: %v", p, err)
		}
		putFrame(fb)
	}
	close(release)
	if got, err := cli.HighWatermark("t", 3); err != nil || got != 3 {
		t.Fatalf("call after an abandoned flight: hwm %d, %v (stream corrupted?)", got, err)
	}
}

// A write deadline is moved only when it would fire too soon or later
// than the timeout asks, so whatever is kept still fails a stalled write
// within the timeout, and no sooner than half of it.
func TestNextWriteDeadline(t *testing.T) {
	now := time.Unix(1000, 0)
	const timeout = 30 * time.Second
	for _, tc := range []struct {
		name    string
		armed   time.Time
		timeout time.Duration
		want    time.Time
		rearm   bool
	}{
		{"none armed", time.Time{}, timeout, now.Add(timeout), true},
		{"armed a moment ago", now.Add(timeout - time.Millisecond), timeout, now.Add(timeout - time.Millisecond), false},
		{"armed half a timeout away", now.Add(timeout / 2), timeout, now.Add(timeout / 2), false},
		{"armed nearer than half", now.Add(timeout/2 - time.Nanosecond), timeout, now.Add(timeout), true},
		{"armed in the past", now.Add(-time.Second), timeout, now.Add(timeout), true},
		{"a tighter override", now.Add(timeout), time.Second, now.Add(time.Second), true},
		{"no timeout clears it", now.Add(timeout), 0, time.Time{}, true},
		{"no timeout, none armed", time.Time{}, 0, time.Time{}, false},
	} {
		got, rearm := nextWriteDeadline(tc.armed, now, tc.timeout)
		if !got.Equal(tc.want) || rearm != tc.rearm {
			t.Errorf("%s: (%v, %v), want (%v, %v)", tc.name, got, rearm, tc.want, tc.rearm)
		}
		if tc.timeout > 0 && (got.After(now.Add(tc.timeout)) || got.Before(now.Add(tc.timeout/2))) {
			t.Errorf("%s: deadline %v outside [now+%v, now+%v]", tc.name, got, tc.timeout/2, tc.timeout)
		}
	}
}
