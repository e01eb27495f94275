package broker

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/metrics"
)

// parentControlHex are version-7 request frames as the build before the
// control ops went binary sent them (correlation ID 1, untraced): the
// control op as a JSON document under op code 4. The first four are the
// ops that build served — hello, a create of in/1, meta, and a ping from
// n1 whose view declares n0 dead — the last four the ops it had already
// retired and answered "unknown op": a consumer-group commit, a
// committed read, a leader→follower commit replication and a
// partition-count read.
var parentControlHex = []struct{ name, hex string }{
	{"hello", "0704000000000000000100000000000000007b226f70223a2268656c6c6f227d"},
	{"create in/1", "0704000000000000000100000000000000007b226f70223a22637265617465222c22746f706963223a22696e222c22706172746974696f6e73223a317d"},
	{"meta", "0704000000000000000100000000000000007b226f70223a226d657461227d"},
	{"ping", "0704000000000000000100000000000000007b226f70223a2270696e67222c226e6f6465223a226e31222c2265706f6368223a372c2276696577223a7b226e30223a7b2264656164223a747275652c22766572223a397d2c226e31223a7b22766572223a327d7d7d"},
	{"commit", "0704000000000000000100000000000000007b226f70223a22636f6d6d6974222c22746f706963223a22696e222c226f6666736574223a332c2267726f7570223a2267227d"},
	{"committed", "0704000000000000000100000000000000007b226f70223a22636f6d6d6974746564222c22746f706963223a22696e222c2267726f7570223a2267227d"},
	{"commitrep", "0704000000000000000100000000000000007b226f70223a22636f6d6d6974726570222c22746f706963223a22696e222c226f6666736574223a332c2267726f7570223a2267222c226e6f6465223a226e30222c2265706f6368223a317d"},
	{"parts", "0704000000000000000100000000000000007b226f70223a227061727473222c22746f706963223a22696e227d"},
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// parentControlOps are the version-7 frames of the four control ops
// that build served.
func parentControlOps() []wireGateCase { return hexCases(parentControlHex[:4]) }

// retiredControlOps are the version-7 frames of the four it had retired.
func retiredControlOps() []wireGateCase { return hexCases(parentControlHex[4:]) }

func hexCases(in []struct{ name, hex string }) []wireGateCase {
	var cases []wireGateCase
	for _, c := range in {
		cases = append(cases, wireGateCase{name: c.name, payload: mustHex(c.hex)})
	}
	return cases
}

// fileTree reads every file and directory under root: path → contents
// ("" for a directory).
func fileTree(t *testing.T, root string) map[string]string {
	t.Helper()
	tree := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			tree[path] = ""
			return err
		}
		b, err := os.ReadFile(path)
		tree[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// requestCounts reads every op's broker_request_seconds count.
func requestCounts(reg *metrics.Registry) map[string]uint64 {
	counts := make(map[string]uint64)
	for _, label := range opLabels {
		if label != "" {
			counts[label] = reg.Histogram("broker_request_seconds", "request service latency in seconds, by wire op", metrics.Labels{"op": label}).Count()
		}
	}
	return counts
}

// refusedWholeServer is a durable one-member broker in dir whose topic
// held holds 5 records, with its requests counted on reg.
type refusedWholeServer struct {
	dir string
	b   *Broker
	srv *Server
	reg *metrics.Registry
	cc  *ClusterClient
}

func newRefusedWholeServer(t *testing.T) *refusedWholeServer {
	t.Helper()
	s := &refusedWholeServer{dir: t.TempDir(), reg: metrics.NewRegistry()}
	var err error
	if s.b, err = Open(StorageConfig{Dir: s.dir, Policy: storage.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.b.Close)
	if err := s.b.CreateTopic("held", 1); err != nil {
		t.Fatal(err)
	}
	s.srv = serveMember(t, s.b, ServerOptions{Metrics: s.reg})
	if s.cc, err = DialCluster([]string{s.srv.Addr()}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.cc.Close() })
	if _, err := s.cc.Produce("held", recs("k", 5)); err != nil {
		t.Fatal(err)
	}
	return s
}

// refuse sends payload on a connection of its own and checks it is
// refused whole: the server closes the connection unanswered, serves
// and counts no request, and the node's epoch and view, the topics, the
// log, its committed watermark and every file in the data directory stay
// as they were.
func (s *refusedWholeServer) refuse(t *testing.T, payload []byte) {
	t.Helper()
	node := s.srv.node.Load()
	epoch, files, counts := nodeEpoch(node), fileTree(t, s.dir), requestCounts(s.reg)
	conn, err := net.Dial("tcp", s.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeRawFrame(conn, payload); err != nil {
		t.Fatal(err)
	}
	fb := getFrame()
	defer putFrame(fb)
	if err := readFrameInto(conn, fb); err == nil {
		t.Fatalf("answered % x; want the connection closed", fb.b)
	} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, net.ErrClosed) {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("the server neither answered nor closed the connection")
		}
	}
	if got := requestCounts(s.reg); !maps.Equal(got, counts) {
		t.Fatalf("request counts %v → %v; want none served", counts, got)
	}
	if got := nodeEpoch(node); got != epoch || node.isJoining() {
		t.Fatalf("node epoch %d → %d, joining %v; want its view untouched", epoch, got, node.isJoining())
	}
	if names := s.b.topicNames(); len(names) != 1 || names[0] != "held" {
		t.Fatalf("topics %q; want only held", names)
	}
	if hwm, err := s.b.HighWatermark("held", 0); err != nil || hwm != 5 {
		t.Fatalf("log end = %d, %v; want 5", hwm, err)
	}
	if hwm, err := s.cc.HighWatermark("held", 0); err != nil || hwm != 5 {
		t.Fatalf("committed watermark = %d, %v; want 5", hwm, err)
	}
	if got := fileTree(t, s.dir); !maps.Equal(got, files) {
		t.Fatalf("data directory changed: %d entries → %d", len(files), len(got))
	}
}

// TestParentWrittenControlOps: each control op as the version-7 build
// sent it is refused whole at the wire gate, naming both versions — no
// topic is created, no view merged, nothing answered — and under the
// current version byte its op code is refused as unknown.
func TestParentWrittenControlOps(t *testing.T) {
	s := newRefusedWholeServer(t)
	for _, c := range parentControlOps() {
		t.Run(c.name, func(t *testing.T) {
			if _, err := decodeBinRequest(c.payload); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version 7 (want %d)", wireVersion)) {
				t.Fatalf("decoding the version-7 frame: %v", err)
			}
			s.refuse(t, c.payload)
			current := append([]byte{wireVersion}, c.payload[1:]...)
			if _, err := decodeBinRequest(current); err == nil || !strings.Contains(err.Error(), "unknown binary op 4") {
				t.Fatalf("decoding its op under the current version: %v", err)
			}
			s.refuse(t, current)
		})
	}
}

// TestRetiredControlOpsChangeNothing sends each control op the
// version-7 build had already retired, as that build's clients sent it,
// to a durable one-member broker: each is refused whole, and a fresh
// client still reads the topic it holds.
func TestRetiredControlOpsChangeNothing(t *testing.T) {
	s := newRefusedWholeServer(t)
	for _, c := range retiredControlOps() {
		t.Run(c.name, func(t *testing.T) { s.refuse(t, c.payload) })
	}
	if _, err := os.Stat(filepath.Join(s.dir, "groups.json")); !os.IsNotExist(err) {
		t.Fatalf("groups.json after the retired ops: %v", err)
	}
	cli, err := dial(s.srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if m, err := cli.Meta(); err != nil || len(m.Topics["held"].Partitions) != 1 {
		t.Fatalf("meta after the retired ops = %+v, %v; want topic held with 1 partition", m, err)
	}
}

// TestCreateTopicRefusesUnsafeNames: a durable broker keeps a topic in
// <Dir>/<name>, so a create whose name is empty, "." or "..", or holds a
// path separator or NUL is answered with an error over the wire and
// creates nothing, inside the data directory or beside it; so is a
// partition count above what the wire carries, in process and at the
// client.
func TestCreateTopicRefusesUnsafeNames(t *testing.T) {
	root := t.TempDir()
	b, err := Open(StorageConfig{Dir: filepath.Join(root, "data"), Policy: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	srv := serveMember(t, b, ServerOptions{})
	cli, err := dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	before := fileTree(t, root)
	for _, name := range []string{"", ".", "..", "../escaped", "a/b", "/abs", `a\b`, "nul\x00"} {
		if err := cli.CreateTopic(name, 1); err == nil || !isRemoteErr(err) {
			t.Fatalf("create %q over the wire: %v; want an answered error", name, err)
		}
	}
	if err := b.CreateTopic("wide", maxPartitions+1); err == nil {
		t.Fatal("created a topic of more partitions than the wire carries")
	}
	if err := cli.CreateTopic("wide", maxPartitions+1); err == nil {
		t.Fatal("the client sent a partition count the wire cannot carry")
	}
	if names := b.topicNames(); len(names) != 0 {
		t.Fatalf("topics %q after refused creates", names)
	}
	if after := fileTree(t, root); !maps.Equal(after, before) {
		t.Fatalf("refused creates left files: %d entries → %d", len(before), len(after))
	}
	if err := cli.CreateTopic("in", 2); err != nil {
		t.Fatalf("a plain create after the refusals: %v", err)
	}
}

// TestEveryOpCountedOnce: one request of each op the server serves adds
// exactly 1 to its own broker_request_seconds count and 0 to every
// other's.
func TestEveryOpCountedOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := serveMember(t, New(), ServerOptions{Metrics: reg})
	cli, err := dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	frames := storage.AppendRecordFrames(nil, recs("k", 3))
	section := replSection{frames: frames, count: 3}
	ops := []struct {
		label string
		do    func() error
	}{
		{"hello", cli.hello},
		{"create", func() error { return cli.CreateTopic("in", 1) }},
		{"meta", func() error { _, err := cli.Meta(); return err }},
		{"ping", func() error { return cli.ping(time.Second, "n0", gossipOf(1, nil), func(gossip) {}) }},
		{"producep", func() error { _, err := cli.producePartitionFrames("in", 0, 0, 0, frames, 3); return err }},
		{"hwm", func() error { _, err := cli.HighWatermark("in", 0); return err }},
		{"fetch", func() error { _, err := cli.Fetch("in", 0, 0, 10); return err }},
		{"rhwm", func() error { _, err := cli.replicaHWM("n0", "in", 0); return err }},
		{"rfetch", func() error {
			return cli.replicaFetch("n0", "in", 0, 0, 10, func(replSection) error { return nil })
		}},
		{"replicate", func() error { _, err := cli.replicate(0, 1, "intruder", "in", 0, &section); return err }},
	}
	if len(ops) != len(requestCounts(reg)) {
		t.Fatalf("%d ops driven, %d served", len(ops), len(requestCounts(reg)))
	}
	for _, op := range ops {
		before := requestCounts(reg)
		if err := op.do(); err != nil && op.label != "replicate" { // a non-member's replicate is refused, and counted
			t.Fatalf("%s: %v", op.label, err)
		}
		for label, n := range requestCounts(reg) {
			want := before[label]
			if label == op.label {
				want++
			}
			if n != want {
				t.Errorf("after one %s: %s counted %d → %d", op.label, label, before[label], n)
			}
		}
	}
}
