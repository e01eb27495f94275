package broker

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"streamapprox/internal/broker/storage"
)

// TestStateJSONMatchesParent pins the bytes of state.json: a durable
// node with two producers, a three-entry journal and committed
// watermark 12 writes exactly the file an earlier build wrote for that
// state (testdata/parent-state.json). TestParentDataDirOpensUntouched
// pins the read side.
func TestStateJSONMatchesParent(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent-state.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(StorageConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.CreateTopic("stream", 1); err != nil {
		t.Fatal(err)
	}
	n, err := NewClusterNode(b, NodeConfig{ID: "n0", Peers: map[string]string{"n0": "127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	ps := nodePart(t, n, "stream", 0)
	n.noteBatch(ps, batchMeta{pid: 9, seq: 4, base: 0, end: 5})
	n.noteBatch(ps, batchMeta{pid: 7, seq: 1, base: 5, end: 9})
	n.noteBatch(ps, batchMeta{pid: 9, seq: 5, base: 9, end: 12})
	ps.committed.Store(12)
	n.saveClusterState(ps)
	got, err := os.ReadFile(n.statePath(ps))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("state.json = %s\nwant %s", got, want)
	}
}

// An idle durable node's state-flush tick allocates nothing: it walks no
// partition while none was marked dirty. A partition marked between two
// ticks is still written by the next.
func TestIdleStateFlushAllocatesNothing(t *testing.T) {
	b, err := Open(StorageConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 4; i++ {
		if err := b.CreateTopic(fmt.Sprintf("t%d", i), 4); err != nil {
			t.Fatal(err)
		}
	}
	n, err := NewClusterNode(b, NodeConfig{ID: "n0", Peers: map[string]string{"n0": "127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, n.flushDirtyState); allocs != 0 {
		t.Errorf("an idle flush allocates %v objects, want 0", allocs)
	}
	ps := nodePart(t, n, "t2", 3)
	ps.committed.Store(7)
	n.noteStateDirty(ps)
	n.flushDirtyState()
	var st partitionState
	if ok, err := storage.LoadJSON(n.statePath(ps), &st); err != nil || !ok || st.Committed != 7 {
		t.Fatalf("state.json of the marked partition: found %v, committed %d, err %v; want committed 7", ok, st.Committed, err)
	}
}
