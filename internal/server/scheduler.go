package server

import (
	"time"

	"streamapprox/internal/adaptive"
	"streamapprox/internal/budget"
	"streamapprox/internal/metrics"
)

// The cross-query budget scheduler: a single sample budget (total
// sampled items per second across ALL queries, Config.GlobalBudget) is
// apportioned over the registered queries once per control interval.
// Each query gets a per-query adaptive controller (the §4.2.1 feedback
// loop lifted from shard level to query level) that grows its desired
// fraction while its observed relative error exceeds its target and
// shrinks it when comfortably below — so over-achieving queries give
// budget back and starved queries claim more. Desired fractions are
// turned into demands (desired fraction × observed arrival rate ×
// weight), the global allowance is drawn from a token bucket
// (internal/budget's Pulsar-style resource budget), and when demand
// exceeds supply every query is scaled back proportionally to its
// weighted demand. Grants are pushed into the shard sessions with
// SetFraction and take effect at the next slide segment.

// defaultSchedTarget is the relative-error target assumed for queries
// registered without one: the scheduler needs an error signal to rank
// queries, and 5% matches the paper's mid-range accuracy sweeps.
const defaultSchedTarget = 0.05

// minSchedFraction keeps every query minimally alive even under severe
// budget pressure, so its error signal (the input to next interval's
// allocation) keeps flowing.
const minSchedFraction = 0.01

type scheduler struct {
	srv      *Server
	interval time.Duration
	bucket   *budget.Tokens

	// states is touched only from the scheduler goroutine.
	states map[string]*schedState

	budgetGauge *metrics.Gauge
	demandGauge *metrics.Gauge
	grantGauge  *metrics.Gauge
}

// schedState is one query's allocation state across intervals.
type schedState struct {
	ctrl        *adaptive.Controller
	lastRecords int64
	lastSeq     int64 // result seq at the last Observe, so stale errors are not re-observed
	fracGauge   *metrics.Gauge
}

func newScheduler(srv *Server) *scheduler {
	rate := srv.cfg.GlobalBudget * srv.cfg.ScheduleEvery.Seconds()
	s := &scheduler{
		srv:      srv,
		interval: srv.cfg.ScheduleEvery,
		bucket:   budget.NewTokens(rate, 2*rate, 1),
		states:   make(map[string]*schedState),
		budgetGauge: srv.reg.Gauge("saproxd_sched_budget_items_per_s",
			"configured global sample budget", nil),
		demandGauge: srv.reg.Gauge("saproxd_sched_demand_items",
			"total sampled-item demand last control interval", nil),
		grantGauge: srv.reg.Gauge("saproxd_sched_granted_items",
			"total sampled-item grant last control interval", nil),
	}
	s.budgetGauge.Set(srv.cfg.GlobalBudget)
	return s
}

// loop reapportions the budget every interval until the server closes.
func (s *scheduler) loop() {
	defer s.srv.wg.Done()
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	for {
		select {
		case <-s.srv.done:
			return
		case <-tick.C:
			s.tick()
		}
	}
}

// tick runs one control interval: observe, demand, grant, apply.
func (s *scheduler) tick() {
	type cand struct {
		j       *job
		st      *schedState
		desired float64
		delta   float64
		demand  float64 // desired × delta (sampled items wanted this interval)
	}
	jobs := s.srv.jobs()
	live := make(map[string]bool, len(jobs))
	cands := make([]cand, 0, len(jobs))
	var total, wtotal float64
	for _, j := range jobs {
		if j.isStopped() {
			continue
		}
		live[j.id] = true
		st, ok := s.states[j.id]
		var rec int64
		for _, sh := range j.shards {
			rec += sh.records.Load()
		}
		if !ok {
			target := j.spec.TargetError
			if target <= 0 {
				target = defaultSchedTarget
			}
			st = &schedState{
				ctrl: adaptive.NewController(target, j.spec.Fraction),
				// Seed the arrival baseline at the current counters: a
				// restored query carries its lifetime total, which must
				// not read as one interval's phantom demand spike.
				lastRecords: rec,
				fracGauge: s.srv.reg.Gauge("saproxd_sched_fraction",
					"sampling fraction granted by the budget scheduler",
					metrics.Labels{"query": j.id}),
			}
			st.fracGauge.Set(j.spec.Fraction)
			s.states[j.id] = st
		}
		delta := float64(rec - st.lastRecords)
		st.lastRecords = rec
		desired := st.ctrl.Fraction()
		// Feed the controller only when a NEW window has merged since
		// the last tick: re-observing the same stale error every
		// interval would couple the loop gain to the tick rate instead
		// of the window cadence (one adjustment per fresh observation).
		if re, seq, seen := j.observedError(); seen && seq > st.lastSeq {
			desired = st.ctrl.Observe(re)
			st.lastSeq = seq
		}
		demand := desired * delta
		cands = append(cands, cand{j: j, st: st, desired: desired, delta: delta, demand: demand})
		total += demand
		wtotal += demand * j.spec.Weight
	}
	for id := range s.states {
		if !live[id] {
			delete(s.states, id) // gauge series cleanup happens in Deregister
		}
	}

	granted := total
	if total >= 1 {
		granted = float64(s.bucket.SampleSize(int(total)))
	}
	for _, c := range cands {
		f := grantFraction(c.desired, c.j.spec.Weight, c.delta, c.demand, granted, total, wtotal)
		c.st.ctrl.SetFraction(f)
		c.j.setFraction(f)
		c.st.fracGauge.Set(f)
	}
	s.demandGauge.Set(total)
	s.grantGauge.Set(granted)
}

// grantFraction converts one query's share of the global grant into
// its sampling fraction. With supply to spare every query runs at its
// controller's desired operating point; under contention each gets
// the slice of the grant proportional to its WEIGHTED demand,
// converted back to a fraction of its own arrivals and never above
// desired — so Weight biases the split only when the budget actually
// binds. The result is clamped to [minSchedFraction, 1].
func grantFraction(desired, weight, delta, demand, granted, total, wtotal float64) float64 {
	f := desired
	if granted < total && wtotal > 0 && delta > 0 {
		share := granted * (demand * weight) / wtotal
		if sf := share / delta; sf < f {
			f = sf
		}
	}
	if f < minSchedFraction {
		f = minSchedFraction
	}
	if f > 1 {
		f = 1
	}
	return f
}
