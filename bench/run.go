package main

import (
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"streamapprox/internal/metrics"
)

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	setups  int    // set-ups timed per untraced run; the median is reported
	outDir  string // where a traced run writes its spans
}

// result is one run of one workload.
type result struct {
	workload   string
	traced     bool
	metrics    map[string]float64
	attempted  int
	failed     int
	violations []string
	lateDrops  int      // windows short of records the system itself counted as dropped late
	firstLate  string   // the first such window
	notes      []string // measurement context worth printing: sample counts, spreads, the tail level used
	tracePath  string
}

// correct reports whether the outputs were right. Windows that lost
// records the serving tier itself counted as late drops are failed
// operations, not wrong outputs.
func (r *result) correct() bool { return len(r.violations) == 0 }

// lateDrop records a window that is short of records the system reported
// dropping as late.
func (r *result) lateDrop(describe string) {
	r.failed++
	r.lateDrops++
	if r.lateDrops == 1 {
		r.notes = append(r.notes, "first late drop: "+describe)
		r.firstLate = describe
	}
}

func (r *result) violate(format string, args ...any) {
	r.failed++
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// run measures one workload. The serving tier closes windows on a
// wall-clock idle heuristic, so a stall of a quarter second (a co-tenant
// freezing the VM) can make it drop records as late; a measurement hit by
// that says nothing about the code, and is discarded and taken once more,
// as a slice hit by a burst is discarded by the median.
func run(wl *workload, opt options) (*result, error) {
	res, err := runOnce(wl, opt)
	if err != nil || res.lateDrops == 0 {
		return res, err
	}
	discarded := res
	if res, err = runOnce(wl, opt); err != nil {
		return nil, err
	}
	res.note("an attempt before this one was discarded: %d of its windows lost records to late drops after a stall (first: %s)",
		discarded.lateDrops, discarded.firstLate)
	return res, nil
}

func runOnce(wl *workload, opt options) (*result, error) {
	if wl.lib {
		return runLib(wl, opt)
	}
	return runServed(wl, opt)
}

// runServed measures a served workload. Set-up is repeated opt.setups
// times (all but the last torn down again) so that setup_s is a median;
// the measured phase then runs on the last pipeline, from the moment its
// warm-up has left the result end until every query has delivered every
// expected window.
func runServed(wl *workload, opt options) (*result, error) {
	res := &result{workload: wl.name, traced: opt.traced, metrics: make(map[string]float64)}
	var tr *tracer
	setups := opt.setups
	if opt.traced {
		tr = newTracer()
		setups = 1
	}
	var p *pipeline
	var setupS []float64
	for i := 0; i < setups; i++ {
		start := takeMark(false)
		var err error
		if p, err = setUp(wl, opt.seed, opt.seconds, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setupS = append(setupS, setupSeconds(start, !wl.paced))
		if i < setups-1 {
			p.close()
			debug.FreeOSMemory() // the next set-up, and peak_rss_mb, start from a clean heap
		}
	}
	defer p.close()

	// The measured phase, cut into ten equal event-count slices at the
	// result end: slice k is complete when every always-attached query has
	// delivered a window ending at or after its last event.
	marks := make([]mark, 0, slices+1)
	m0 := takeMark(opt.traced)
	marks = append(marks, m0)
	var gauges map[string]func() float64
	if opt.traced {
		gauges = p.layerGauges()
	}
	smp := startSampler(opt.traced, gauges)
	bound := func(k int) int64 { return p.src.timeOf(p.plan.warm + p.plan.measured*int64(k)/slices) }
	var werr error
	for k := 1; k <= slices && werr == nil; k++ {
		var reached int64
		werr = p.waitFor(func() bool { reached = p.progressLocked(); return reached >= bound(k) })
		for k < slices && reached >= bound(k+1) {
			k++ // one result closed several slices (short runs): they share a mark
		}
		m := takeMark(false)
		m.slice = k
		marks = append(marks, m)
	}
	if werr == nil {
		werr = p.waitFor(p.allDeliveredLocked)
	}
	m1 := takeMark(opt.traced)
	smp.finish()
	if werr != nil {
		res.violate("measured phase: %v", werr)
	}
	<-p.prodDone
	if werr == nil {
		if err := p.awaitConsumed(); err != nil {
			res.violate("%v", err)
		}
	}
	if opt.traced {
		p.layerMetrics(res, m0, m1, smp)
	}
	delivered := make(map[string]int64, len(p.queries))
	late := make(map[string]float64, len(p.queries))
	ss := []*metrics.Scrape{scrape(p.srv.Registry())}
	for _, q := range p.queries {
		delivered[q.id], _, _ = p.srv.Stats(q.id)
		late[q.id] = sumOf(ss, "saproxd_shard_late_events", metrics.Labels{"query": q.id})
	}
	p.close()

	p.verify(res, delivered, late)
	p.endToEnd(res, marks, m1, setupS, smp.rssMax)
	if opt.traced {
		if err := finishTraced(wl, p.src, tr, opt.outDir, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// finishTraced ends a traced run: the staged pass, the spans written
// out, and the traced run's own rate kept under a name of its own so it
// can be set against the untraced one.
func finishTraced(wl *workload, src *source, tr *tracer, outDir string, res *result) error {
	res.metrics["trace.items_per_s"] = res.metrics["items_per_s"]
	stagedPass(wl, src, tr, res)
	path, err := tr.write(outDir, wl.name)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	res.tracePath = path
	res.metrics["trace.spans"] = float64(tr.len())
	self := selfByName(tr.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.note("span self time: %-18s %8.3f s", name, self[name])
	}
	return nil
}

// verify checks every query's output against the oracle: exactly-once
// delivery, every expected window exactly once with seq counting up from
// zero, and every window's item count exact — or short by records the
// query's shards themselves reported dropping as late, which counts as a
// failed operation. It fills the accuracy metrics from the measured
// windows on the way.
func (p *pipeline) verify(res *result, delivered map[string]int64, late map[string]float64) {
	var relErr []float64
	var checked, covered int
	for _, q := range p.queries {
		res.attempted++ // the registration
		if got := delivered[q.id]; got != p.plan.total() {
			res.violate("query %s: delivered %d records, produced %d", q.id, got, p.plan.total())
		}
		first, last := p.expected(q.spec)
		seen := make(map[int64]int, len(q.windows))
		for i := range q.windows {
			w := &q.windows[i].mw
			if w.Seq != int64(i) {
				res.violate("query %s: result %d on the stream has seq %d", q.id, i, w.Seq)
			}
			end := w.End.UnixNano()
			seen[end]++
			sc := p.oracle.score(q.spec.Kind, w)
			switch {
			case sc.itemsOK:
			case w.Items < sc.exactN && late[q.id] > 0:
				res.lateDrop(sc.describe)
			default:
				res.violate("%s", sc.describe)
			}
			if end > p.warmAt && end <= last {
				relErr = append(relErr, sc.relErr)
				checked += sc.checked
				covered += sc.covered
			}
		}
		for end := first; end <= last; end += int64(q.spec.Slide) {
			res.attempted++
			if n := seen[end]; n != 1 {
				res.violate("query %s: window ending %s observed %d times", q.id,
					time.Unix(0, end).UTC().Format(time.RFC3339Nano), n)
			}
		}
	}
	res.attempted += p.attempted
	res.failed += p.prodFailed
	res.metrics["rel_err_mean"] = mean(relErr)
	if checked > 0 {
		res.metrics["bound_coverage"] = float64(covered) / float64(checked)
	}
	res.note("accuracy over %d windows, %d estimates checked against their bound", len(relErr), checked)
}

// setupSeconds is the time one set-up took since start. Like the rate
// (see sliceStats), a closed-loop set-up — pool generation and a warm-up
// that runs as fast as the system can — is counted in seconds the
// hypervisor did not give to someone else.
func setupSeconds(start mark, closedLoop bool) float64 {
	end := takeMark(false)
	took := end.at.Sub(start.at).Seconds()
	if closedLoop {
		took *= 1 - stolenShare(start, end)
	}
	return took
}

// slices is how many equal event-count slices the measured phase is cut
// into.
const slices = 10

// A slice is quiet when at most quietSteal of the CPU time the machine
// wanted during it was stolen by the hypervisor. The medians are taken
// over the quiet slices when at least minQuietSlices are: fewer could sit
// inside one regime of a workload that has several (fanout-mixed spends
// its first two slices catching late queries up).
const (
	quietSteal     = 0.05
	minQuietSlices = 6
)

// sliceStats reduces the marks taken at the slice boundaries to the two
// numbers that must survive a co-tenant burst: the median slice rate and
// the median slice CPU cost per item. A burst that slows two slices out
// of ten moves neither.
func sliceStats(res *result, marks []mark, perSlice float64, closedLoop bool) {
	var cpu, rates, steal []float64
	for k := 1; k < len(marks); k++ {
		items := perSlice * float64(marks[k].slice-marks[k-1].slice)
		cpu = append(cpu, float64(marks[k].cpu-marks[k-1].cpu)/items)
		rates = append(rates, items/marks[k].at.Sub(marks[k-1].at).Seconds())
		steal = append(steal, stolenShare(marks[k-1], marks[k]))
	}
	res.note("slice rates in run order, items/s: %.0f", rates)
	res.note("slice CPU in run order, ns/item: %.1f", cpu)
	res.note("slice steal in run order, share of wanted CPU: %.3f", steal)
	if closedLoop {
		// In a closed loop the system is the bottleneck, so the time the
		// hypervisor gave to another guest is time the system did not have:
		// the rate is taken per second the machine was actually ours. On
		// this shared 2-vCPU VM the stolen share moves between 0 and 40 %
		// from one minute to the next, and the raw rate with it; divided
		// out, ten runs agree within a few percent. An open loop's rate is
		// its schedule and is left alone.
		res.note("raw median slice rate %.0f items/s, before the stolen share is divided out", median(rates))
		for k := range rates {
			rates[k] /= 1 - steal[k]
		}
	}

	// Slices during which the hypervisor ran someone else say little about
	// the code. When most of the run was quiet, the medians are taken over
	// its quiet slices only.
	var quietRates, quietCPU []float64
	for k := range rates {
		if steal[k] <= quietSteal {
			quietRates, quietCPU = append(quietRates, rates[k]), append(quietCPU, cpu[k])
		}
	}
	if len(quietRates) >= minQuietSlices && len(quietRates) < len(rates) {
		res.note("medians over the %d slices with steal at most %.0f%%", len(quietRates), quietSteal*100)
		rates, cpu = quietRates, quietCPU
	}
	rates, cpu = sorted(rates), sorted(cpu)
	res.metrics["items_per_s"] = quantile(rates, 0.5)
	res.metrics["cpu_ns_per_item"] = quantile(cpu, 0.5)
	res.note("slice spread: rate p25 %.0f p75 %.0f items/s, CPU p25 %.1f p75 %.1f ns/item; steal over the phase %.1f%%",
		quantile(rates, 0.25), quantile(rates, 0.75), quantile(cpu, 0.25), quantile(cpu, 0.75),
		100*stolenShare(marks[0], marks[len(marks)-1]))
}

// endToEnd fills the end-to-end metrics of a served run.
func (p *pipeline) endToEnd(res *result, marks []mark, m1 mark, setupS []float64, rssMax float64) {
	wl := p.wl
	n := float64(p.plan.measured)
	res.metrics["setup_s"] = median(setupS)
	res.metrics["peak_rss_mb"] = rssMax
	res.note("measured %d events in %.2f s using %.2f CPU-s (set-up %.2f s)", p.plan.measured,
		m1.at.Sub(marks[0].at).Seconds(), (m1.cpu - marks[0].cpu).Seconds(), setupS)
	sliceStats(res, marks, n/slices, !wl.paced)

	// Result latency: from the creation of the event that closes a window
	// to the window's arrival on the stream. In the open loop events carry
	// their due time, so that is arrival − window end; in a closed loop it
	// is measured from the hand-off of the batch carrying the closing
	// event to produce.
	var lat []float64
	for _, q := range p.queries {
		if q.late {
			continue // a catching-up query's delay is server.catchup_s, not latency
		}
		_, last := p.expected(q.spec)
		for _, o := range q.windows {
			end := o.mw.End.UnixNano()
			if end <= p.warmAt || end > last {
				continue
			}
			b := int(p.src.indexAt(end) / int64(wl.batch)) // the batch carrying the closing event
			if b >= len(p.sendAt) {
				continue
			}
			from := p.sendAt[b]
			if wl.paced {
				from = time.Unix(0, end)
			}
			lat = append(lat, msSince(from, o.at))
			if p.tr != nil {
				p.tr.add("window", from, o.at, -1, p.prodSpan[b], nil)
			}
		}
	}
	rl := summarize(lat, 0.95)
	res.metrics["result_latency_p50_ms"] = rl.Median
	res.metrics["result_latency_p95_ms"] = rl.Tail
	ack := summarize(p.ackMS, 0.99)
	res.metrics["produce_ack_p50_ms"] = ack.Median
	res.metrics["produce_ack_p99_ms"] = ack.Tail
	res.note("result latency: %d samples, tail read at p%g; produce ack: %d samples, tail read at p%g",
		rl.N, rl.TailAt*100, ack.N, ack.TailAt*100)
}
