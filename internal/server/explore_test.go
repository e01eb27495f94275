package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"streamapprox/internal/pane"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
)

// The explorer walks every interleaving of one partition's events at small
// scope, breadth first, as an explicit-state model checker does: each
// reached state is rebuilt by replaying its event trace on the partition
// value the loop steps, with real jobs, samplers and mergers, and is
// hashed, so each state is expanded once. The loop's turn is two events,
// as its lock is taken twice: it reads the round the value asks for
// (fetching what the log holds then), and later applies it — a round, an
// idle marker after an empty read at the plane, or nothing. Between them
// the producer appends, queries attach late and detach, and the server
// restarts from a checkpoint of every attached query onto a fresh
// partition. A capture changes nothing, so a checkpoint taken earlier
// than the restart is one taken at it: whatever happened between is lost
// with the process, but for the log's appends, which the explorer
// interleaves after the restart anyway, and a deletion, which removes the
// query's checkpoint as it would have removed the query.
//
// Beside the system the explorer keeps a model of each query: the records
// it must have consumed, the markers it stood at, a private pane sampler
// fed exactly those, the records each slide's pane counts, and the late
// drops. Every reached state is checked against it:
//   - each attached query consumes each offset from its start exactly
//     once, in order;
//   - each pane's total count is the log's records in that pane for that
//     query, less late drops;
//   - a group's members stand at one offset and sample through its
//     sampler, which is in the state the member's private sampler is in
//     (so a fold joined samplers only at one point of the stream);
//   - a restored query continues at its captured offset with its captured
//     sampler;
//   - no group is left behind the plane once the log stops growing: from
//     each state with the whole log appended, the loop's own turns bring
//     every group to the log's end.

// exEvent is one event of the explored partition.
type exEvent uint8

const (
	exAppend    exEvent = iota // the producer appends the log's next batch
	exRead                     // the loop reads the round its partition asks for
	exApply                    // the loop applies what it read: a round, or nothing
	exMarker                   // the loop applies an empty read at the plane as an idle marker
	exEarliest1                // q1 attaches from the log's start
	exLatest1                  // q1 attaches at the log's end
	exEarliest2                // q2 attaches from the log's start
	exDetach                   // q0, the first member of its key's group, detaches
	exRestart                  // the server restarts from a checkpoint of every attached query
	exEvents
)

var exNames = [exEvents]string{"append", "read", "apply", "marker", "attach q1 earliest", "attach q1 latest",
	"attach q2 earliest", "detach q0", "restart"}

// The scope: a log of exBatches batches of exBatchLen records at exTimes,
// in strata a and b by turns, over 1 s slides; three queries over two
// group keys — q0 and q1 share one, q2 has its own — q0 attached from the
// start, q1 late from the log's start or its end, q2 late from its start;
// one detach; and one restart from a checkpoint. An idle marker carries
// exMark, a mark another partition read, so records read after it can be
// late. The times put a batch boundary inside the slide at 1 s, and the
// mark inside that slide between its second and third record: q0, marked
// after the first batch, drops the second record as late, and q1,
// attached at the log's end after the marker, takes it. Both then stand
// at the next slide with two records of the previous one, split a:0 b:2
// and a:1 b:1 — one point of the stream only by the total counts.
const (
	exBatches  = 3
	exBatchLen = 2
	exQueries  = 3
)

var (
	exBase  = time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	exTimes = [exBatches * exBatchLen]time.Duration{100, 1200, 1400, 1800, 2200, 2600} // ms after exBase
	exMark  = stream.TimeToNanos(exBase.Add(1500 * time.Millisecond))
	exSpecs = [exQueries]Spec{
		{Kind: "count", Window: time.Second, Slide: time.Second, Fraction: 0.5, Seed: 1},
		{Kind: "sum", Window: time.Second, Slide: time.Second, Fraction: 0.5, Seed: 1},
		{Kind: "count", Window: time.Second, Slide: time.Second, Fraction: 1, Seed: 1},
	}
)

// exLog is the explored log: every record the producer appends, in order.
func exLog() []stream.Event {
	events := make([]stream.Event, len(exTimes))
	for i, at := range exTimes {
		events[i] = stream.Event{Stratum: string(rune('a' + i%2)), Value: float64(10 + i),
			Time: exBase.Add(at * time.Millisecond)}
	}
	return events
}

// exModel is what one query must have seen.
type exModel struct {
	start, pos int64           // where it attached; the next offset it needs
	wm, late   int64           // its watermark and its late drops
	ps         *pane.Sampler   // a private sampler fed what it must have seen
	counts     map[int64]int64 // by slide start: the records its pane counts
}

// consume feeds the model the log's records [m.pos, to).
func (m *exModel) consume(log []stream.Event, to int64, slide time.Duration) {
	if to <= m.pos {
		return
	}
	b := stream.BatchOf(log[m.pos:to])
	m.ps.Push(b, 0, b.Len(), exNoCut)
	b.Release()
	for _, e := range log[m.pos:to] {
		t := stream.TimeToNanos(e.Time)
		if t < m.wm {
			m.late++
			continue
		}
		m.wm = t
		m.counts[stream.TimeToNanos(e.Time.Truncate(slide))]++
	}
	m.pos = to
}

// mark feeds the model an idle marker carrying mark.
func (m *exModel) mark(mark int64) {
	m.ps.Advance(mark, exNoCut)
	m.wm = max(m.wm, mark)
}

func exNoCut(int64, *sampling.Sample, int64) {}

// The states of an explored query.
const (
	exUnattached = iota
	exAttached
	exDetached
)

// exQuery is one explored query: its job while it runs, and its model.
type exQuery struct {
	j     *job
	state int
	model *exModel
	// records is the shard's counter as the last state left it.
	records int64
}

// exWorld is one explored state.
type exWorld struct {
	srv      *Server
	log      []stream.Event
	p        partition
	appended int
	// read is the round read and not yet applied: its offset, its records
	// and whether it was read at the plane; n < 0 when none is pending.
	read struct {
		lo, n int64
		plane bool
	}
	qs        [exQueries]exQuery
	detached  bool
	restarted bool
}

func newExWorld(srv *Server, log []stream.Event) *exWorld {
	w := &exWorld{srv: srv, log: log}
	w.read.n = -1
	w.attach(0, 0)
	return w
}

// logLen is the records appended.
func (w *exWorld) logLen() int64 { return int64(w.appended * exBatchLen) }

// attach registers query q at offset and attaches its shard's group.
func (w *exWorld) attach(q int, offset int64) {
	spec := exSpecs[q]
	if err := spec.normalize(); err != nil {
		panic(err)
	}
	j, err := newJob(fmt.Sprintf("q-%d", q), spec, w.srv, nil)
	if err != nil {
		panic(err)
	}
	sh := j.shards[0]
	sh.group.offset = offset
	w.qs[q] = exQuery{j: j, state: exAttached, model: &exModel{start: offset, pos: offset, wm: stream.ZeroTimeNanos,
		ps: pane.NewSampler(spec.Slide, spec.Fraction, spec.seed(0)), counts: map[int64]int64{}}}
	w.p.attach(sh.group)
}

// enabled reports whether e can happen in w.
func (w *exWorld) enabled(e exEvent) bool {
	switch e {
	case exAppend:
		return w.appended < exBatches
	case exRead:
		return w.read.n < 0 && len(w.p.groups) > 0
	case exApply:
		return w.read.n >= 0
	case exMarker:
		return w.read.n == 0 && w.read.plane
	case exEarliest1, exLatest1:
		return w.qs[1].state == exUnattached
	case exEarliest2:
		return w.qs[2].state == exUnattached
	case exDetach:
		return !w.detached && w.qs[0].state == exAttached
	case exRestart:
		return !w.restarted
	}
	return false
}

// step applies e to w, and to the models of the queries it moves.
func (w *exWorld) step(e exEvent) {
	switch e {
	case exAppend:
		w.appended++
	case exRead:
		lo, hi := w.p.read()
		w.read.lo, w.read.n, w.read.plane = lo, max(min(hi, w.logLen())-lo, 0), lo == w.p.next
	case exApply, exMarker:
		lo, n := w.read.lo, w.read.n
		w.read.n = -1
		if e == exMarker {
			// The model's rule: a marker goes to every query standing at the
			// position of the empty read that found the partition drained.
			for i := range w.qs {
				if q := &w.qs[i]; q.state == exAttached && q.model.pos == lo {
					q.model.mark(exMark)
				}
			}
			w.p.idle(exMark)
			return
		}
		if n > 0 {
			b := stream.BatchOf(w.log[lo : lo+n])
			b.Base = lo
			b.SortByTime()
			w.p.round(b)
			b.Release()
			w.p.lag(w.logLen())
		}
	case exEarliest1:
		w.attach(1, 0)
	case exLatest1:
		w.attach(1, w.logLen())
	case exEarliest2:
		w.attach(2, 0)
	case exDetach:
		w.p.detach(w.qs[0].j.shards[0])
		w.qs[0].state, w.detached = exDetached, true
	case exRestart:
		// Each attached query is restored from its checkpoint, in id order,
		// onto a fresh partition, which the first positions. The read in
		// flight is lost with the process.
		w.restarted, w.p, w.read.n = true, partition{}, -1
		for i := range w.qs {
			q := &w.qs[i]
			if q.state != exAttached {
				continue
			}
			cf, err := q.j.checkpoint()
			if err != nil {
				panic(err)
			}
			if q.j, err = newJob(cf.ID, q.j.spec, w.srv, cf); err != nil {
				panic(err)
			}
			w.p.attach(q.j.shards[0].group)
		}
	}
}

// observe moves each attached query's model to what its shard consumed in
// the last step, and reports how the step broke the first invariant of
// consumption it broke.
func (w *exWorld) observe() error {
	for i := range w.qs {
		q := &w.qs[i]
		if q.state == exUnattached {
			continue
		}
		sh := q.j.shards[0]
		records := sh.records.Load()
		if q.state == exDetached {
			if records != q.records {
				return fmt.Errorf("q%d consumed %d records after it left the partition", i, records-q.records)
			}
			continue
		}
		to := sh.group.offset
		if to < q.model.pos {
			return fmt.Errorf("q%d went back from offset %d to %d", i, q.model.pos, to)
		}
		if records-q.records != to-q.model.pos {
			return fmt.Errorf("q%d counted %d records moving from offset %d to %d", i, records-q.records, q.model.pos, to)
		}
		if to > w.logLen() {
			return fmt.Errorf("q%d stands at %d, past the log's %d records", i, to, w.logLen())
		}
		q.model.consume(w.log, to, exSpecs[i].Slide)
		q.records = records
	}
	return nil
}

// check reports the first invariant w breaks.
func (w *exWorld) check() error {
	members := 0
	for gi, g := range w.p.groups {
		if len(g.members) == 0 {
			return fmt.Errorf("group %d has no member", gi)
		}
		for _, sh := range g.members {
			if sh.group != g { // so no shard is a member of two groups
				return fmt.Errorf("%s's shard is a member of group %d but samples through another", sh.job.id, gi)
			}
		}
		members += len(g.members)
	}
	attached := 0
	for i := range w.qs {
		q := &w.qs[i]
		if q.state != exAttached {
			continue
		}
		attached++
		sh, m := q.j.shards[0], q.model
		if !slices.Contains(w.p.groups, sh.group) || !slices.Contains(sh.group.members, sh) {
			return fmt.Errorf("q%d is attached but not on the partition", i)
		}
		if sh.group.offset != m.pos {
			return fmt.Errorf("q%d stands at %d, its group at %d", i, m.pos, sh.group.offset)
		}
		if m.pos < m.start || q.records != sh.records.Load() {
			return fmt.Errorf("q%d stands at %d from its start %d", i, m.pos, m.start)
		}
		got := sh.group.ps.State()
		got.Late += sh.lateOff
		if want := m.ps.State(); !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			wnt, _ := json.Marshal(want)
			return fmt.Errorf("q%d samples through a sampler in state\n%s\nwhere its private sampler is in\n%s", i, g, wnt)
		}
		if got.Late != m.late {
			return fmt.Errorf("q%d dropped %d records as late, want %d", i, got.Late, m.late)
		}
		for _, r := range q.j.resultsSince(-1) {
			if want := m.counts[stream.TimeToNanos(r.Start)]; r.Items != want {
				return fmt.Errorf("q%d served the window at %v counting %d records, want %d", i, r.Start.Sub(exBase), r.Items, want)
			}
		}
		for _, s := range q.j.merger.slides {
			if p := s.panes[0]; p.ok {
				if want := m.counts[stream.TimeToNanos(s.start)]; p.sum.TotalCount() != want {
					return fmt.Errorf("q%d holds a pane at %v counting %d records, want %d", i, s.start.Sub(exBase), p.sum.TotalCount(), want)
				}
			}
		}
	}
	if members != attached {
		return fmt.Errorf("%d members on the partition, %d queries attached", members, attached)
	}
	return nil
}

// drain runs the loop's own turns until it reads nothing new, and reports
// a group it leaves short of the log's end. It consumes w.
func (w *exWorld) drain() error {
	if w.read.n >= 0 {
		w.step(exApply)
	}
	for turn := 0; len(w.p.groups) > 0; turn++ {
		if turn > 4*len(w.log) {
			return fmt.Errorf("the loop's turns never end: groups at %v, the plane at %d", w.offsets(), w.p.next)
		}
		w.step(exRead)
		if w.read.n == 0 && w.read.plane {
			break
		}
		w.step(exApply)
	}
	for _, g := range w.p.groups {
		if g.offset != w.logLen() || w.p.next != w.logLen() {
			return fmt.Errorf("with the log's %d records appended the loop rests with groups at %v, the plane at %d", w.logLen(), w.offsets(), w.p.next)
		}
	}
	return nil
}

func (w *exWorld) offsets() []int64 {
	var out []int64
	for _, g := range w.p.groups {
		out = append(out, g.offset)
	}
	return out
}

// fingerprint hashes what w's future depends on and what its invariants
// read. The windows served and the slides before the merger's mark are
// checked as they are served and never change, so two states that differ
// only there are one.
func (w *exWorld) fingerprint() [sha256.Size]byte {
	var buf bytes.Buffer
	put := func(vs ...int64) {
		for _, v := range vs {
			buf.Write(binary.AppendVarint(buf.AvailableBuffer(), v))
		}
	}
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	putState := func(st pane.State) {
		put(int64(st.SamplerSeed), int64(math.Float64bits(st.Fraction)), st.SegStart.UnixNano(), st.Watermark.UnixNano(),
			st.Late, flag(st.Sampler != nil))
		if o := st.Sampler; o != nil {
			put(int64(o.Budget), int64(len(o.Reservoirs)), int64(len(o.Prev)))
			for _, k := range slices.Sorted(maps.Keys(o.Reservoirs)) {
				r := o.Reservoirs[k]
				buf.WriteString(k)
				put(int64(r.Capacity), r.Seen, int64(len(r.Values)))
				for _, v := range r.Values {
					put(int64(math.Float64bits(v)))
				}
			}
			for _, k := range slices.Sorted(maps.Keys(o.Prev)) {
				buf.WriteString(k)
				put(o.Prev[k])
			}
		}
	}
	put(int64(w.appended), w.read.lo, w.read.n, flag(w.read.plane), flag(w.detached), flag(w.restarted),
		w.p.next, flag(w.p.placed))
	for _, g := range w.p.groups {
		put(g.offset, int64(g.key.slide), int64(g.key.fraction*1e6))
		for _, sh := range g.members {
			put(int64(sh.job.id[2]))
		}
		putState(g.ps.State())
	}
	for i := range w.qs {
		q := &w.qs[i]
		put(int64(q.state))
		if q.state == exUnattached {
			continue
		}
		m := q.model
		done := q.j.merger.done
		put(q.records, m.start, m.pos, m.wm, m.late, q.j.shards[0].lateOff, done.UnixNano(),
			q.j.merger.marks[0].UnixNano(), q.j.merger.windows.Fired.UnixNano())
		var keys []int64
		for k := range m.counts {
			if k >= stream.TimeToNanos(done) {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		for _, k := range keys {
			put(k, m.counts[k])
		}
		putState(m.ps.State())
		for _, s := range q.j.merger.slides {
			put(s.start.UnixNano(), flag(s.panes[0].ok), s.panes[0].sum.TotalCount(), int64(s.panes[0].sum.SampledCount()))
		}
	}
	return sha256.Sum256(buf.Bytes())
}

// exNode is a state to expand: its trace from the initial state, and the
// events it enables.
type exNode struct {
	trace   []exEvent
	enabled uint16
}

// explore walks every state reachable from the initial one, breadth
// first, and returns the states it reached, or the first broken invariant
// with the shortest trace that breaks it.
func explore(srv *Server, limit int) (int, error) {
	log := exLog()
	replay := func(trace []exEvent) (*exWorld, error) {
		w := newExWorld(srv, log)
		for _, e := range trace {
			w.step(e)
			if err := w.observe(); err != nil {
				return w, err
			}
		}
		return w, nil
	}
	fail := func(trace []exEvent, err error) error {
		var names []string
		for _, e := range trace {
			names = append(names, exNames[e])
		}
		return fmt.Errorf("%v\nshortest trace, %d events:\n  %s", err, len(trace), strings.Join(names, "\n  "))
	}
	expand := func(w *exWorld, trace []exEvent) (exNode, error) {
		if err := w.check(); err != nil {
			return exNode{}, err
		}
		node := exNode{trace: trace}
		for e := range exEvents {
			if w.enabled(e) {
				node.enabled |= 1 << e
			}
		}
		if w.appended == exBatches {
			if err := w.drain(); err != nil {
				return exNode{}, err
			}
		}
		return node, nil
	}
	w0, _ := replay(nil)
	seen := map[[sha256.Size]byte]bool{w0.fingerprint(): true}
	root, err := expand(w0, nil)
	if err != nil {
		return 1, fail(nil, err)
	}
	queue := []exNode{root}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		for e := range exEvents {
			if node.enabled&(1<<e) == 0 {
				continue
			}
			trace := append(slices.Clip(node.trace), e)
			w, err := replay(trace)
			if err != nil {
				return len(seen), fail(trace, err)
			}
			fp := w.fingerprint()
			if seen[fp] {
				continue
			}
			seen[fp] = true
			if len(seen) > limit {
				return len(seen), fmt.Errorf("more than %d states", limit)
			}
			child, err := expand(w, trace)
			if err != nil {
				return len(seen), fail(trace, err)
			}
			queue = append(queue, child)
		}
	}
	return len(seen), nil
}

// TestExplorePartitionInterleavings checks every interleaving of one
// partition's rounds, idle markers, late attaches, a detach, a checkpoint
// and a restart at the explorer's scope against the invariants above.
func TestExplorePartitionInterleavings(t *testing.T) {
	start := time.Now()
	states, err := explore(fixtureServer(t, 1), 1_000_000)
	if err != nil {
		t.Fatalf("after %d states: %v", states, err)
	}
	t.Logf("%d states in %v", states, time.Since(start).Round(time.Millisecond))
}
