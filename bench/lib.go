package main

import (
	"runtime/debug"
	"sort"
	"time"

	"streamapprox"
	"streamapprox/internal/server"
	"streamapprox/internal/stream"
)

// libRun is one set-up instance of the library-only workload: the pool
// as a single columnar batch the session is fed 4096-row ranges of, on
// the calling goroutine, with no broker and no server.
type libRun struct {
	wl     *workload
	src    *source
	oracle *oracle
	plan   plan
	sess   *streamapprox.Session
	pool   *stream.EventBatch
	next   int64 // stream index of the next row to push
	tr     *tracer

	windows []observed
	sendAt  []time.Time // per batch
	sendIdx []int64     // per batch: stream index of its first row
	pushMS  []float64   // per measured batch: PushBatch duration
	genBusy time.Duration
}

func setUpLib(wl *workload, seed uint64, seconds float64, tr *tracer) *libRun {
	l := &libRun{wl: wl, tr: tr}
	l.src = wl.source(seed)
	l.oracle = newOracle(l.src, nil)
	l.plan = wl.planFor(l.src, seconds)
	l.sess = streamapprox.NewSession(sessionConfig(wl.queries[0]))
	// The pool shares the source's stratum and value columns; only the
	// time column is the batch's own, rewritten range by range as the
	// cycles advance.
	l.pool = &stream.EventBatch{Strata: l.src.strata, Values: l.src.values,
		Times: make([]int64, l.src.len()), Dict: l.src.dict}
	l.pushUntil(l.plan.warm, false)
	return l
}

// pushUntil feeds the stream up to index end, collecting the windows
// each batch completes.
func (l *libRun) pushUntil(end int64, measured bool) {
	n, batch := l.src.len(), int64(l.wl.batch)
	for l.next < end {
		from := l.next % n
		to := from + batch
		if to > n {
			to = n // the pool's last batch is short; the next one starts the new cycle
		}
		t0 := time.Now()
		shift := l.src.origin + (l.next/n)*l.src.span
		times := l.pool.Times[from:to]
		for i, t := range l.src.times[from:to] {
			times[i] = t + shift
		}
		t1 := time.Now()
		_ = l.sess.PushBatch(l.pool, int(from), int(to)) // fails only on a closed session
		t2 := time.Now()
		ready := l.sess.Poll()
		t3 := time.Now()
		l.sendAt = append(l.sendAt, t1)
		l.sendIdx = append(l.sendIdx, l.next)
		if measured {
			l.genBusy += t1.Sub(t0)
			l.pushMS = append(l.pushMS, msSince(t1, t2))
		}
		parent := l.tr.add("produce", t1, t3, -1, -1, nil)
		l.tr.add("stage.push", t1, t2, parent, -1, map[string]float64{"rows": float64(to - from)})
		for _, wr := range ready {
			l.windows = append(l.windows, observed{at: t3, mw: server.MergedWindow{
				Seq: int64(len(l.windows)), Query: "lib", Start: wr.Start, End: wr.End,
				Value: wr.Overall.Value, Error: wr.Overall.Bound, Items: wr.Items, Sampled: wr.Sampled,
			}})
			l.tr.add("window", t1, t3, parent, parent, nil)
		}
		l.next += to - from
	}
}

// runLib measures the library-only workload.
func runLib(wl *workload, opt options) (*result, error) {
	res := &result{workload: wl.name, traced: opt.traced, metrics: make(map[string]float64)}
	var tr *tracer
	setups := opt.setups
	if opt.traced {
		tr = newTracer()
		setups = 1
	}
	var l *libRun
	var setupS []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			l = nil
			debug.FreeOSMemory()
		}
		start := takeMark(false)
		l = setUpLib(wl, opt.seed, opt.seconds, tr)
		setupS = append(setupS, setupSeconds(start, true))
	}
	warmWindows := len(l.windows)

	// The library is synchronous — a window is out as soon as its closing
	// event is pushed — so the slices are cut at the input end.
	marks := make([]mark, 0, slices+1)
	m0 := takeMark(opt.traced)
	marks = append(marks, m0)
	smp := startSampler(opt.traced, nil)
	for k := 1; k <= slices; k++ {
		l.pushUntil(l.plan.warm+l.plan.measured*int64(k)/slices, true)
		m := takeMark(false)
		m.slice = k
		marks = append(marks, m)
	}
	l.pushUntil(l.plan.total(), false)
	m1 := takeMark(opt.traced)
	smp.finish()

	sp := wl.queries[0]
	n := float64(l.plan.measured)
	warmAt := l.src.timeOf(l.plan.warm)
	first, last := expectedEnds(l.src, sp, l.src.timeOf(l.plan.warm+l.plan.measured))

	// Correctness: every expected window once, in order, with the exact
	// item count; the session must have dropped nothing as late.
	res.attempted = len(l.pushMS)
	if late := l.sess.Late(); late != 0 {
		res.violate("session dropped %d events as late", late)
	}
	var relErr, lat []float64
	var checked, covered int
	want := first
	for i := range l.windows {
		o := &l.windows[i]
		end := o.mw.End.UnixNano()
		if end != want {
			res.violate("window %d ends %s, expected %s", i, o.mw.End.Format(time.RFC3339), time.Unix(0, want).UTC().Format(time.RFC3339))
		}
		want = end + int64(sp.Slide)
		sc := l.oracle.score(sp.Kind, &o.mw)
		if !sc.itemsOK {
			res.violate("%s", sc.describe)
		}
		if end > warmAt && end <= last {
			res.attempted++
			relErr = append(relErr, sc.relErr)
			checked += sc.checked
			covered += sc.covered
			// The batch carrying a window's closing event is the one whose
			// push completed it.
			closing := l.src.indexAt(end)
			b := sort.Search(len(l.sendIdx), func(k int) bool { return l.sendIdx[k] > closing }) - 1
			if b >= 0 && i >= warmWindows {
				lat = append(lat, msSince(l.sendAt[b], o.at))
			}
		}
	}
	if want <= last {
		res.violate("windows stop at %s, expected through %s", time.Unix(0, want).UTC().Format(time.RFC3339), time.Unix(0, last).UTC().Format(time.RFC3339))
	}

	rl := summarize(lat, 0.95)
	ack := summarize(l.pushMS, 0.99)
	res.metrics["setup_s"] = median(setupS)
	sliceStats(res, marks, n/slices, true)
	res.metrics["result_latency_p50_ms"] = rl.Median
	res.metrics["result_latency_p95_ms"] = rl.Tail
	res.metrics["produce_ack_p50_ms"] = ack.Median
	res.metrics["produce_ack_p99_ms"] = ack.Tail
	res.metrics["rel_err_mean"] = mean(relErr)
	if checked > 0 {
		res.metrics["bound_coverage"] = float64(covered) / float64(checked)
	}
	res.metrics["peak_rss_mb"] = smp.rssMax
	res.note("measured %d events in %.2f s using %.2f CPU-s (set-up %.2f s)", l.plan.measured,
		m1.at.Sub(m0.at).Seconds(), (m1.cpu - m0.cpu).Seconds(), setupS)
	res.note("accuracy over %d windows; result latency: %d samples, tail at p%g; push: %d samples, tail at p%g",
		len(relErr), rl.N, rl.TailAt*100, ack.N, ack.TailAt*100)

	if opt.traced {
		libLayerMetrics(res, l, m0, m1, smp)
		if err := finishTraced(wl, l.src, tr, opt.outDir, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}
