package broker

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
)

// serveMember serves b as a one-member cluster, the way brokerd runs
// without -peers: bind, then attach and start a node whose member map
// is {n0: the bound address}. It returns once the node has joined; the
// node is srv.node.Load().
func serveMember(t testing.TB, b *Broker, opts ServerOptions) *Server {
	t.Helper()
	srv, err := ServeWithOptions(b, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	node, err := NewClusterNode(b, NodeConfig{ID: "n0", Peers: map[string]string{"n0": srv.Addr()}, Replicas: 1, MinISR: 1})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	srv.AttachNode(node)
	node.Start()
	t.Cleanup(func() {
		node.Close()
		srv.Close()
	})
	for deadline := time.Now().Add(5 * time.Second); node.isJoining(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("one-member node never joined")
		}
	}
	return srv
}

func startServer(t *testing.T) (*Server, *client) {
	t.Helper()
	srv := serveMember(t, New(), ServerOptions{})
	cli, err := dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return srv, cli
}

// produceRouted produces recs over one connection as the routing client
// does: split by key on this side, then one partitioned produce per
// partition the records reach (producer id 0: no dedup).
func produceRouted(cli *client, topic string, recs []Record) (int, error) {
	m, err := cli.Meta()
	if err != nil {
		return 0, err
	}
	t, ok := m.Topics[topic]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTopic, topic)
	}
	parts := len(t.Partitions)
	bb := storage.GetBatchBuilder(parts, func(key string) int { return keyPartition(key, parts) })
	defer bb.Release()
	for i := range recs {
		bb.Add(&recs[i])
	}
	total := 0
	for p := 0; p < parts; p++ {
		if frames, count := bb.Frames(p); count > 0 {
			n, err := cli.producePartitionFrames(topic, p, 0, 0, frames, count)
			if err != nil {
				return total, err
			}
			total += n
		}
	}
	return total, nil
}

func TestTCPRoundTrip(t *testing.T) {
	_, cli := startServer(t)
	if err := cli.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	n, err := produceRouted(cli, "in", recs("tcp", 25))
	if err != nil || n != 25 {
		t.Fatalf("produce = %d, %v", n, err)
	}
	var fetched int
	for p := 0; p < 2; p++ {
		got, err := cli.Fetch("in", p, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		fetched += len(got)
	}
	if fetched != 25 {
		t.Errorf("fetched %d records over TCP, want 25", fetched)
	}
}

func TestTCPErrorsPropagate(t *testing.T) {
	_, cli := startServer(t)
	if _, err := cli.Fetch("missing", 0, 0, 10); err == nil ||
		!strings.Contains(err.Error(), "unknown topic") {
		t.Errorf("fetch from missing topic: %v", err)
	}
	if err := cli.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.CreateTopic("t", 1); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate create over TCP: %v", err)
	}
}

func TestTCPHighWatermarkAndOffsets(t *testing.T) {
	_, cli := startServer(t)
	_ = cli.CreateTopic("in", 1)
	_, _ = produceRouted(cli, "in", recs("k", 5))
	hwm, err := cli.HighWatermark("in", 0)
	if err != nil || hwm != 5 {
		t.Errorf("hwm = %d, %v", hwm, err)
	}
	rs, err := cli.Fetch("in", 0, 3, 10)
	if err != nil || len(rs) != 2 || rs[0].Offset != 3 || rs[1].Offset != 4 {
		t.Errorf("fetch from offset 3 = %+v, %v; want offsets 3 and 4", rs, err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv, _ := startServer(t)
	cli0, err := dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer cli0.Close()
	if err := cli0.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cli.Close()
			for i := 0; i < 50; i++ {
				if _, err := produceRouted(cli, "in", recs("key", 2)); err != nil {
					t.Errorf("produce: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var total int64
	for p := 0; p < 4; p++ {
		hwm, err := cli0.HighWatermark("in", p)
		if err != nil {
			t.Fatal(err)
		}
		total += hwm
	}
	if total != 4*50*2 {
		t.Errorf("total = %d, want %d", total, 4*50*2)
	}
}

func TestTCPRecordFidelity(t *testing.T) {
	_, cli := startServer(t)
	_ = cli.CreateTopic("in", 1)
	when := time.Date(2017, 12, 11, 1, 2, 3, 0, time.UTC)
	_, err := produceRouted(cli, "in", []Record{{Key: "tcp", Value: 123.456, Time: when}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cli.Fetch("in", 0, 0, 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("fetch: %v (%d)", err, len(got))
	}
	r := got[0]
	if r.Key != "tcp" || r.Value != 123.456 || !r.Time.Equal(when) || r.Offset != 0 {
		t.Errorf("record mangled in transit: %+v", r)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, cli := startServer(t)
	_ = cli.CreateTopic("in", 1)
	srv.Close()
	if _, err := produceRouted(cli, "in", recs("k", 1)); err == nil {
		t.Error("produce after server close should fail")
	}
}

// TestServerRefusesOpsBeforeNodeAttached: a server bound before its
// node is attached answers hello, so peers can dial it, and refuses
// produce, fetch and HWM with an answered error — nothing reaches the
// log. Once the node is attached the same connection is served.
func TestServerRefusesOpsBeforeNodeAttached(t *testing.T) {
	b := New()
	if err := b.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeWithOptions(b, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatalf("hello before attach: %v", err)
	}
	defer func() { _ = cli.Close() }()
	refused := func(op string, err error) {
		t.Helper()
		if err == nil || !isRemoteErr(err) || !strings.Contains(err.Error(), errNoNode.Error()) {
			t.Errorf("%s before attach: %v; want the answered %q", op, err, errNoNode)
		}
	}
	_, err = producePart(cli, "in", 0, 7, 1, recs("k", 5))
	refused("produce", err)
	_, err = cli.Fetch("in", 0, 0, 10)
	refused("fetch", err)
	_, err = cli.HighWatermark("in", 0)
	refused("hwm", err)
	if hwm, _ := b.HighWatermark("in", 0); hwm != 0 {
		t.Fatalf("log holds %d records after refused produces", hwm)
	}

	node, err := NewClusterNode(b, NodeConfig{ID: "n0", Peers: map[string]string{"n0": srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv.AttachNode(node)
	node.Start()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err = producePart(cli, "in", 0, 7, 1, recs("k", 5)); err == nil || time.Now().After(deadline) {
			break
		}
	}
	if hwm, herr := cli.HighWatermark("in", 0); err != nil || herr != nil || hwm != 5 {
		t.Fatalf("after attach: produce %v, hwm %d, %v; want 5 records", err, hwm, herr)
	}
}

// wireGateCase is one request payload the server must refuse.
type wireGateCase struct {
	name    string
	payload []byte
}

// wireGateCases are the byte strings of every retired dialect: a JSON
// lockstep frame, each retired op code under the current header, and
// well-formed produces under the retired version bytes. Shared with
// FuzzBinaryRequestDecode's seed corpus.
func wireGateCases() []wireGateCase {
	cases := []wireGateCase{{
		name:    "json lockstep frame",
		payload: []byte(`{"op":"produce","topic":"in","records":[{"key":"k","value":1}]}`),
	}}
	for _, op := range []byte{1, 2, 5, 6, 7, 9} {
		// The retired key-routed produce's body — topic, then a
		// count-prefixed frame chunk — under the retired op code: were the
		// op still served, this would append.
		payload := appendBinReqHeader(nil, op, 1, 0)
		payload = appendU16(payload, 2)
		payload = append(payload, "in"...)
		payload = appendU32(payload, 3)
		payload = storage.AppendRecordFrames(payload, recs("k", 3))
		cases = append(cases, wireGateCase{name: fmt.Sprintf("retired op %d", op), payload: payload})
	}
	// Well-formed requests of the retired replica fetch (op 11, "n0"
	// reading in/0 from offset 0) and multi-section replicate (op 13, "n0"
	// at epoch 1 shipping 3 records of in/0 and their journal entry), as
	// the build before the section ops encoded them: were either still
	// served, the fetch would answer and the replicate would append.
	// That build wrote version byte 7; the current one is put in its
	// place, so the op code alone is what the gate refuses.
	for _, c := range []struct{ op, hex string }{
		{"11", "070b0000000000000001000000000000000000026e300002696e00000000000000000000000000000064"},
		{"13", "070d00000000000000010000000000000000000000000000000100026e30000000010002696e000000000000000000000000000000000000000300000001000000000000000700000000000000010000000000000000000000000000000300000003000000423a00000098371751030000040100010000006b0000000000000000000000000000000000f03f00000000000000400000c9725f14ff140000000040420f0080841e00"},
	} {
		payload := mustHex(c.hex)
		payload[0] = wireVersion // under the current header, like the ops above
		cases = append(cases, wireGateCase{name: "retired op " + c.op, payload: payload})
	}
	fb := getFrame()
	defer putFrame(fb)
	for _, ver := range []byte{1, 2, 6, wireVersion - 1, wireVersion + 1} {
		encodeProducePartFwdReq(fb, 1, 0, "in", 0, 0, 0, storage.AppendRecordFrames(nil, recs("k", 3)), 3)
		payload := append([]byte(nil), fb.b...)
		payload[0] = ver
		cases = append(cases, wireGateCase{name: fmt.Sprintf("version byte %d", ver), payload: payload})
	}
	return cases
}

// TestWireGateRejectsRetiredDialects sends each retired-dialect payload
// to a live server: a retired op code decodes as an unknown op, the
// answer is an error response or a closed connection, nothing is
// appended, and the server keeps serving.
func TestWireGateRejectsRetiredDialects(t *testing.T) {
	srv, cli := startServer(t)
	if err := cli.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range wireGateCases() {
		t.Run(c.name, func(t *testing.T) {
			if _, err := decodeBinRequest(c.payload); strings.HasPrefix(c.name, "retired op") &&
				(err == nil || !strings.Contains(err.Error(), "unknown binary op")) {
				t.Fatalf("decoded as %v; want an unknown op", err)
			}
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := writeRawFrame(conn, c.payload); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			fb := getFrame()
			defer putFrame(fb)
			if err := readFrameInto(conn, fb); err == nil {
				if len(fb.b) < binRespHdrLen || fb.b[10] == binStatusOK {
					t.Fatalf("server answered OK: % x", fb.b)
				}
			} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("server neither answered nor closed the connection")
			}
			if hwm, err := cli.HighWatermark("in", 0); err != nil || hwm != 0 {
				t.Fatalf("watermark after rejected frame = %d, %v; want 0", hwm, err)
			}
		})
	}
}

// TestDialRejectsWireVersionMismatch dials listeners whose hello answer
// carries another wire version — two before this build's (frames
// without time codes), the one before (control ops as JSON) and the one
// after — and one that closes the connection at hello, as a version-7
// broker does on a version byte it does not speak: each dial fails
// promptly, naming this build's version and, when the peer answered,
// the peer's.
func TestDialRejectsWireVersionMismatch(t *testing.T) {
	for _, theirs := range []byte{6, wireVersion - 1, wireVersion + 1, 0} {
		name := fmt.Sprintf("version %d", theirs)
		if theirs == 0 {
			name = "closed at hello"
		}
		t.Run(name, func(t *testing.T) { dialMismatchedPeer(t, theirs) })
	}
}

// dialMismatchedPeer dials a peer answering the hello under version
// theirs, or closing the connection when theirs is 0.
func dialMismatchedPeer(t *testing.T, theirs byte) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fb := getFrame()
		defer putFrame(fb)
		if err := readFrameInto(bufio.NewReader(conn), fb); err != nil || theirs == 0 {
			return
		}
		corr, _ := corrIDOf(fb.b)
		encodeOKResp(fb, binOpHello, corr)
		fb.b[0] = theirs
		_ = writeRawFrame(conn, fb.b)
	}()
	start := time.Now()
	cli, err := dial(ln.Addr().String(), DefaultDialTimeout, defaultRequestTimeout)
	if err == nil {
		_ = cli.Close()
		t.Fatal("dial against a mismatched peer succeeded")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("dial took %v to fail", took)
	}
	want := []string{fmt.Sprintf("wire version %d", wireVersion)}
	if theirs != 0 {
		want = append(want, fmt.Sprintf("peer answered wire version %d", theirs))
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("error %q does not name %q", err, w)
		}
	}
}
