package pane

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
)

var base = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()

// pushPane offers n records of strata drawn from rng, their values i, at
// times spread over the one-second pane starting sec seconds after base.
func pushPane(p *Sampler, sec, n int, strata []string, rng *rand.Rand, cut Cut) {
	b := stream.GetEventBatch()
	defer b.Release()
	for i := range n {
		at := base + int64(sec)*int64(time.Second) + int64(i)*int64(time.Second)/int64(n)
		b.Append(b.Intern(strata[rng.Intn(len(strata))]), float64(i), at)
	}
	p.Push(b, 0, b.Len(), cut)
}

// samplesAt returns a Cut that keeps a deep copy of each finished pane's
// sample by its start.
func samplesAt(into map[int64]sampling.Sample) Cut {
	return func(start int64, s *sampling.Sample, _ int64) {
		if s == nil {
			return
		}
		c := sampling.Sample{Strata: slices.Clone(s.Strata)}
		for i := range c.Strata {
			c.Strata[i].Values = slices.Clone(c.Strata[i].Values)
		}
		into[start] = c
	}
}

// A pane's sample is a function of its records, the seed, its start and
// the previous pane's counts: a Sampler that reaches pane S after any
// history draws, for S's records, the sample a fresh Sampler draws that
// saw only the pane before S.
func TestPaneSampleIgnoresHistory(t *testing.T) {
	strata := []string{"a", "b", "c"}
	for trial := range 20 {
		rng := rand.New(rand.NewSource(int64(trial)))
		long, fresh := NewSampler(time.Second, 0.3, 9), NewSampler(time.Second, 0.3, 9)
		got, want := map[int64]sampling.Sample{}, map[int64]sampling.Sample{}
		sec := 0
		for range 1 + rng.Intn(6) { // history: panes of other sizes, with gaps
			pushPane(long, sec, 50+rng.Intn(400), strata, rng, samplesAt(got))
			sec += 1 + rng.Intn(3)
		}
		seed := rng.Int63()
		for _, p := range []*Sampler{long, fresh} {
			cut := samplesAt(got)
			if p == fresh {
				cut = samplesAt(want)
			}
			prev, last := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed+1))
			pushPane(p, sec, 300, strata, prev, cut)   // the pane before S
			pushPane(p, sec+1, 900, strata, last, cut) // S: three times the budget
			p.Close(cut)
		}
		s := base + int64(sec+1)*int64(time.Second)
		if len(want[s].Strata) != 3 || !reflect.DeepEqual(got[s], want[s]) {
			t.Errorf("trial %d: pane S after history sampled\n%v\na fresh sampler\n%v", trial, got[s], want[s])
		}
	}
}

// The derived interval seed is not a statistical change: over 4 000
// seeds, each of 40 records in two consecutive panes of a 40-record pane
// budget 8 is kept at Algorithm R's rate 1/5, and the panes' draws are
// independent — of each other, and of the next shard's seed (Seed+1) over
// the same pane: a record is kept in both at the rate 1/25.
func TestDerivedSeedInclusion(t *testing.T) {
	const n, seeds = 40, 4000
	const p = 0.2
	var once [2][n]int // by pane, then record
	pairs := [][2]int{{0, 0}, {0, n - 1}, {7, 8}, {n - 1, n - 1}}
	var adjacent, shards [4]int
	kept := func(seed uint64) [2][n]bool {
		s := NewSampler(time.Second, p, seed)
		out := map[int64]sampling.Sample{}
		for sec := range 3 {
			pushPane(s, sec, n, []string{"a"}, rand.New(rand.NewSource(0)), samplesAt(out))
		}
		s.Close(samplesAt(out))
		var k [2][n]bool
		for pane := range 2 {
			st := out[base+int64(pane+1)*int64(time.Second)].Strata
			if len(st) != 1 || len(st[0].Values) != n/5 {
				t.Fatalf("seed %d pane %d: sample %v, want %d of %d records", seed, pane+1, st, n/5, n)
			}
			for _, v := range st[0].Values {
				k[pane][int(v)] = true
			}
		}
		return k
	}
	next := kept(1)
	for seed := uint64(1); seed <= seeds; seed++ {
		k := next
		next = kept(seed + 1)
		for pane := range 2 {
			for i := range n {
				if k[pane][i] {
					once[pane][i]++
				}
			}
		}
		for i, pr := range pairs {
			if k[0][pr[0]] && k[1][pr[1]] {
				adjacent[i]++
			}
			if k[0][pr[0]] && next[0][pr[1]] {
				shards[i]++
			}
		}
	}
	within := func(what string, c int, p float64) {
		want, sd := seeds*p, math.Sqrt(seeds*p*(1-p))
		if math.Abs(float64(c)-want) > 5*sd {
			t.Errorf("%s: %d times in %d seeds, want %.0f±%.0f", what, c, seeds, want, 5*sd)
		}
	}
	for pane := range 2 {
		for i, c := range once[pane] {
			within(fmt.Sprintf("pane %d record %d kept", pane+1, i), c, p)
		}
	}
	for i, pr := range pairs {
		within(fmt.Sprintf("record %d of pane 1 and %d of pane 2 kept", pr[0], pr[1]), adjacent[i], p*p)
		within(fmt.Sprintf("record %d kept under seed s and %d under s+1", pr[0], pr[1]), shards[i], p*p)
	}
}

// fedAt returns a Sampler of slide and fraction keyed by seed, fed one
// batch of records at times, in nanoseconds after base, their values
// their indexes, over three strata.
func fedAt(slide time.Duration, fraction float64, seed uint64, times []int64) *Sampler {
	return fedFirst(slide, fraction, seed, times, "a")
}

// fedFirst is fedAt with the first record in stratum first.
func fedFirst(slide time.Duration, fraction float64, seed uint64, times []int64, first string) *Sampler {
	p := NewSampler(slide, fraction, seed)
	b := stream.GetEventBatch()
	defer b.Release()
	strata := []int32{b.Intern("a"), b.Intern("b"), b.Intern("c")}
	for i, at := range times {
		s := strata[i%len(strata)]
		if i == 0 {
			s = b.Intern(first)
		}
		b.Append(s, float64(i), base+at)
	}
	p.Push(b, 0, b.Len(), func(int64, *sampling.Sample, int64) {})
	return p
}

// SamePoint is what lets one Sampler stand in for another, and Copy what
// gives a Sampler one of its own: two Samplers fed the same records stand
// at one point of the stream whatever their seeds; one differing from
// them in the slide, the fraction, the watermark, the segment, the
// current or the previous segment's arrival count, or only in how the
// previous segment's arrivals fall into strata, does not; and a Copy cuts
// what its original cuts.
func TestSamePointAndCopy(t *testing.T) {
	ms := int64(time.Millisecond)
	var times []int64 // 100 records in [500, 1000) ms, then 60 in [1000, 1300) ms
	for i := range 160 {
		times = append(times, 500*ms+int64(i)*5*ms)
	}
	last := times[len(times)-1]
	ref := fedAt(time.Second, 0.3, 1, times)
	for _, tc := range []struct {
		name     string
		same     bool
		slide    time.Duration
		fraction float64
		seed     uint64
		times    []int64
		tweak    func(*Sampler)
		first    string // the first record's stratum, when not "a"
	}{
		{name: "another seed", same: true, seed: 2},
		{name: "slide", slide: 500 * time.Millisecond}, // segments at 500 ms and 1 s too
		{name: "fraction", fraction: 0.5},
		{name: "watermark", times: append(slices.Clone(times[:159]), last+ms)},
		{name: "segment", tweak: func(p *Sampler) { p.setSegment(p.segStart - p.slide) }},
		{name: "current count", times: append(slices.Clone(times), last)},
		{name: "previous count", times: slices.Insert(slices.Clone(times), 1, times[0])},
		{name: "previous count of a stratum", first: "b"},
	} {
		slide, fraction, seed, at := time.Second, 0.3, uint64(1), times
		if tc.slide != 0 {
			slide = tc.slide
		}
		if tc.fraction != 0 {
			fraction = tc.fraction
		}
		if tc.seed != 0 {
			seed = tc.seed
		}
		if tc.times != nil {
			at = tc.times
		}
		p := fedAt(slide, fraction, seed, at)
		if tc.first != "" {
			p = fedFirst(slide, fraction, seed, at, tc.first)
		}
		if tc.tweak != nil {
			tc.tweak(p)
		}
		if p.SamePoint(ref) != tc.same || ref.SamePoint(p) != tc.same {
			t.Errorf("%s: SamePoint %v, want %v", tc.name, p.SamePoint(ref), tc.same)
		}
	}

	c := ref.Copy()
	if !c.SamePoint(ref) {
		t.Fatal("a Copy stands at another point than its original")
	}
	got, want := map[int64]sampling.Sample{}, map[int64]sampling.Sample{}
	rng := rand.New(rand.NewSource(3))
	for sec := 2; sec < 7; sec++ {
		seed := rng.Int63()
		n := 100 + rng.Intn(400)
		pushPane(ref, sec, n, []string{"a", "b", "c"}, rand.New(rand.NewSource(seed)), samplesAt(want))
		pushPane(c, sec, n, []string{"a", "b", "c"}, rand.New(rand.NewSource(seed)), samplesAt(got))
	}
	end := base + 8*int64(time.Second)
	ref.Advance(end, samplesAt(want))
	c.Advance(end, samplesAt(got))
	if len(want) != 6 || !reflect.DeepEqual(got, want) {
		t.Errorf("a Copy cut %d panes unlike the %d its original cut", len(got), len(want))
	}
}
