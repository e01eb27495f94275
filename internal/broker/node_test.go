package broker

import (
	"slices"
	"testing"

	"streamapprox/internal/broker/storage"
)

// nodePart returns n's record of one partition, failing the test if the
// broker does not hold the partition.
func nodePart(t testing.TB, n *ClusterNode, topic string, p int) *partState {
	t.Helper()
	ps, err := n.part(topic, p)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// appendPart appends recs straight to one partition's log, past the
// node — as if replication of them had failed — and returns their base
// offset.
func appendPart(t testing.TB, b *Broker, topic string, p int, recs []Record) int64 {
	t.Helper()
	part, err := b.partition(topic, p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := part.appendFrames(storage.AppendRecordFrames(nil, recs), len(recs))
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// idleNode is a node that is never started, over an in-memory broker
// holding topic "t" with two partitions: its records and sessions can be
// driven without a cluster. It returns the record of t/0.
func idleNode(t *testing.T) (*ClusterNode, *partState) {
	t.Helper()
	b := New()
	t.Cleanup(b.Close)
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	n, err := NewClusterNode(b, NodeConfig{ID: "n0", Peers: map[string]string{"n0": "127.0.0.1:1", "n1": "127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n, nodePart(t, n, "t", 0)
}

func TestDedupKeepsNewestSeq(t *testing.T) {
	n, ps := idleNode(t)
	n.noteBatch(ps, batchMeta{pid: 7, seq: 2, base: 10, end: 20})
	n.noteBatch(ps, batchMeta{pid: 7, seq: 1, base: 0, end: 10})  // older: journaled, not adopted
	n.noteBatch(ps, batchMeta{pid: 7, seq: 2, base: 30, end: 40}) // same seq: not adopted
	n.noteBatch(ps, batchMeta{pid: 0, seq: 9, base: 40, end: 50}) // no producer id: ignored
	if last, ok := n.lastSeq(ps, 7); !ok || last != (batchMeta{pid: 7, seq: 2, base: 10, end: 20}) {
		t.Fatalf("pid 7 after older and equal seqs: %+v, %v; want seq 2 at [10, 20)", last, ok)
	}
	n.noteBatch(ps, batchMeta{pid: 7, seq: 3, base: 20, end: 30})
	if last, _ := n.lastSeq(ps, 7); last != (batchMeta{pid: 7, seq: 3, base: 20, end: 30}) {
		t.Fatalf("pid 7 after a newer seq: %+v, want seq 3 at [20, 30)", last)
	}
	if _, ok := n.lastSeq(ps, 0); ok {
		t.Fatal("producer id 0 entered the dedup table")
	}
	if j := journal(ps); len(j) != 4 {
		t.Fatalf("journal holds %d entries, want 4", len(j))
	}
}

func TestJournalEvictsOldest(t *testing.T) {
	n, ps := idleNode(t)
	for i := 0; i <= metaJournalCap; i++ {
		n.noteBatch(ps, batchMeta{pid: uint64(i + 1), seq: 1, base: int64(i), end: int64(i + 1)})
	}
	j := journal(ps)
	if len(j) != metaJournalCap {
		t.Fatalf("journal holds %d entries, want %d", len(j), metaJournalCap)
	}
	if first, last := j[0], j[len(j)-1]; first.pid != 2 || last.pid != metaJournalCap+1 {
		t.Fatalf("journal runs from pid %d to %d, want 2 to %d", first.pid, last.pid, metaJournalCap+1)
	}
	if _, ok := n.lastSeq(ps, 1); !ok {
		t.Fatal("evicting a journal entry dropped its producer from the dedup table")
	}
}

// journal is the partition's batch journal, oldest first.
func journal(ps *partState) []batchMeta { return slices.Collect(ps.metas.all()) }

// Over four journals' worth of batches of varying length, the journal
// holds exactly the newest metaJournalCap, oldest first, and
// metasInRange answers every range as a scan of those batches does.
func TestJournalRingMatchesReference(t *testing.T) {
	n, ps := idleNode(t)
	var all []batchMeta
	base := int64(0)
	for i := 0; i < 4*metaJournalCap; i++ {
		bm := batchMeta{pid: uint64(i%7 + 1), seq: uint64(i + 1), base: base, end: base + int64(1+i%5)}
		base = bm.end
		n.noteBatch(ps, bm)
		all = append(all, bm)
		if i%97 != 0 && i != 4*metaJournalCap-1 {
			continue
		}
		want := all[max(0, len(all)-metaJournalCap):]
		if got := journal(ps); !slices.Equal(got, want) {
			t.Fatalf("after %d batches the journal holds %d entries from %+v, want %d from %+v", i+1, len(got), got[0], len(want), want[0])
		}
		for _, r := range [][2]int64{{0, base}, {want[0].base, want[0].end}, {base - 40, base - 3}, {base / 2, base/2 + 1}, {base, base + 9}} {
			var ref []batchMeta
			for _, bm := range want {
				if bm.end > r[0] && bm.base < r[1] {
					ref = append(ref, bm)
				}
			}
			if got := n.metasInRange(nil, ps, r[0], r[1]); !slices.Equal(got, ref) {
				t.Fatalf("after %d batches metasInRange [%d, %d) = %d entries, want %d", i+1, r[0], r[1], len(got), len(ref))
			}
		}
	}
}

func TestMetasInRangeOverlap(t *testing.T) {
	n, ps := idleNode(t)
	for i := 0; i < 3; i++ {
		n.noteBatch(ps, batchMeta{pid: uint64(i + 1), seq: 1, base: int64(10 * i), end: int64(10 * (i + 1))})
	}
	for _, tc := range []struct {
		from, to int64
		pids     []uint64
	}{
		{5, 15, []uint64{1, 2}},
		{10, 20, []uint64{2}},
		{19, 21, []uint64{2, 3}},
		{0, 30, []uint64{1, 2, 3}},
		{30, 40, nil},
	} {
		var pids []uint64
		for _, bm := range n.metasInRange(nil, ps, tc.from, tc.to) {
			pids = append(pids, bm.pid)
		}
		if !slices.Equal(pids, tc.pids) {
			t.Errorf("metasInRange [%d, %d) = pids %v, want %v", tc.from, tc.to, pids, tc.pids)
		}
	}
}

func TestRejoinTruncationDropsDedupPastCut(t *testing.T) {
	n, ps := idleNode(t)
	for i := 0; i < 3; i++ {
		base := appendPart(t, n.b, "t", 0, keylessRecs(10*i, 10))
		n.noteBatch(ps, batchMeta{pid: uint64(i + 1), seq: 1, base: base, end: base + 10})
	}
	ps.lead()
	n.mu.Lock()
	ps.remoteHWM = 25
	n.mu.Unlock()

	n.truncateDivergence(ps, "n1", 15)
	if hwm := ps.p.log.HighWatermark(); hwm != 15 {
		t.Fatalf("log end after the cut = %d, want 15", hwm)
	}
	if ps.leading.Load() || ps.committed.Load() != 15 || ps.remoteHWM != 15 {
		t.Fatalf("after the cut: leading %v, committed %d, remote %d; want false, 15, 15",
			ps.leading.Load(), ps.committed.Load(), ps.remoteHWM)
	}
	for pid, want := range map[uint64]bool{1: true, 2: false, 3: false} {
		if _, ok := n.lastSeq(ps, pid); ok != want {
			t.Errorf("pid %d in the dedup table: %v, want %v", pid, ok, want)
		}
	}
	if j := journal(ps); len(j) != 1 || j[0].pid != 1 {
		t.Fatalf("journal after the cut = %+v, want pid 1 only", j)
	}

	n.truncateDivergence(ps, "n1", 20) // at or past the log end: nothing to cut
	if hwm := ps.p.log.HighWatermark(); hwm != 15 || len(journal(ps)) != 1 {
		t.Fatalf("a cut past the log end changed it: hwm %d, %d journal entries", hwm, len(journal(ps)))
	}
}
