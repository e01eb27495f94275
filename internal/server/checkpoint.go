package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"streamapprox"
	"streamapprox/internal/adaptive"
	"streamapprox/internal/estimate"
	"streamapprox/internal/pane"
	"streamapprox/internal/query"
	"streamapprox/internal/stream"
)

// A query's checkpoint is one file, <id>.json, and it is the whole of
// what the serving tier restores: the query's delivery watermarks (the
// next offset each shard needs from its partition), its Session
// snapshots, the merger's slides some window still to fire covers, and
// the result sequence counter. The plane itself saves nothing: the
// broker's log is replayable, so a reader's offset is all a query needs
// to resume.
//
// A restarted saproxd re-reads the directory and re-attaches every query
// at its own watermarks, in id order. The plane is positioned as on a
// fresh start, by the first shard that attaches to each partition;
// shards behind it replay the gap through the catch-up path and shards
// ahead of it skip — so a kill -9 restart neither loses nor duplicates
// records for any query. Each file is fsynced before it is renamed into
// place, so a crash leaves either the old checkpoint or the new one.
// Files whose names start with "_" are not checkpoints and are never
// read or removed: an older release kept the plane's position in one.

// checkpointVersion 4 holds the merger's panes. Versions 1–3 held the
// shards' fired window results, version 3 with their Variance and DF:
// upgrade merges them once, on load.
const checkpointVersion = 4

// checkpointFile is the on-disk form of one query's state.
type checkpointFile struct {
	Version int    `json:"version"`
	ID      string `json:"id"`
	Spec    Spec   `json:"spec"`
	Seq     int64  `json:"seq"`

	Shards []shardCheckpoint `json:"shards"`
	// Served is the merger's fired mark: every window ending at or before
	// it has been served. Slides are the slides some window still to fire
	// covers, each as the shards' panes of it (nil: none).
	Served time.Time         `json:"served"`
	Slides []slideCheckpoint `json:"slides,omitempty"`

	// Versions 1–3, read by upgrade alone: the partially merged windows
	// and the recently merged window starts.
	Pending []pendingCheckpoint `json:"pending,omitempty"`
	Fired   []time.Time         `json:"fired,omitempty"`
	// upgraded is what upgrade merged Pending to: served first on restore.
	upgraded []MergedWindow
}

// shardCheckpoint is one shard's resumable state. Offset is the
// query's private delivery watermark: the next offset this query needs
// from the partition (version 1 wrote the per-query consumer offset
// here, which means the same thing, so v1 files restore unchanged).
type shardCheckpoint struct {
	Partition int             `json:"partition"`
	Offset    int64           `json:"offset"`
	Records   int64           `json:"records"`
	Sampled   int64           `json:"sampled"`
	Session   json.RawMessage `json:"session"`
}

// slideCheckpoint is one slide's panes by shard (nil: none).
type slideCheckpoint struct {
	Start time.Time        `json:"start"`
	Panes []*query.Summary `json:"panes"`
}

// pendingCheckpoint is a version 1–3 partially merged window.
type pendingCheckpoint struct {
	Start time.Time     `json:"start"`
	Parts []*legacyPart `json:"parts"` // by shard; nil: none yet
}

// legacyPart is a shard's window result as versions 1–3 wrote it.
type legacyPart struct {
	streamapprox.WindowResult
	GroupItems map[string]int64 // a group mean's weight
}

// checkpoint captures the job's state, one shard at a time and then the
// merger. A shard sharing its group's sampler snapshots that sampler, so
// the group's lock is taken before its own, the order of the data path;
// the job lock is never held with a shard's.
func (j *job) checkpoint() (*checkpointFile, error) {
	cf := &checkpointFile{
		Version: checkpointVersion,
		ID:      j.id,
		Spec:    j.spec,
	}
	for _, sh := range j.shards {
		unlock := sh.lockSampler()
		snap, err := sh.snapshot()
		// The counters are read in the hold that fixes the offset: a batch
		// applied after it is replayed on restore, so counting it here
		// would count it twice.
		sc := shardCheckpoint{Partition: sh.idx, Offset: sh.offset, Records: sh.records.Load(),
			Sampled: sh.sampled.Load(), Session: snap}
		unlock()
		if err != nil {
			return nil, fmt.Errorf("shard %d snapshot: %w", sh.idx, err)
		}
		cf.Shards = append(cf.Shards, sc)
	}
	j.mu.Lock()
	cf.Seq = j.seq
	m := j.merger
	cf.Served = m.windows.Fired
	for _, s := range m.slides {
		// The file is written after j.mu is released: the summaries are
		// never written to, so only the slide's index of them is copied.
		cf.Slides = append(cf.Slides, slideCheckpoint{Start: s.start, Panes: slices.Clone(s.panes)})
	}
	j.mu.Unlock()
	return cf, nil
}

// restore rebuilds the job's shards and merger from a checkpoint: the
// windows an upgraded checkpoint's pending parts merged to are served
// first, then each shard hands the merger the panes its session holds
// (an upgraded checkpoint's) and its watermark, which may fire windows.
func (j *job) restore(cf *checkpointFile) error {
	byPart := make(map[int]shardCheckpoint, len(cf.Shards))
	for _, sc := range cf.Shards {
		byPart[sc.Partition] = sc
	}
	for _, sh := range j.shards {
		sc, ok := byPart[sh.idx]
		if !ok {
			// Partition added since the checkpoint: start it fresh.
			sh.ps = pane.NewSampler(j.spec.Slide, sh.fraction(), j.spec.seed(sh.idx))
			continue
		}
		if err := sh.restore(sc.Session); err != nil {
			return fmt.Errorf("shard %d session: %w", sh.idx, err)
		}
		sh.records.Store(sc.Records)
		sh.recordsMetric.Add(float64(sc.Records))
		sh.sampled.Store(sc.Sampled)
		sh.offset = sc.Offset
	}
	j.mu.Lock()
	j.seq = cf.Seq
	for _, mw := range cf.upgraded {
		j.emitLocked(firedWindow{result: mw})
	}
	j.merger.windows.Fired = cf.Served
	for _, sc := range cf.Slides {
		for i, sum := range sc.Panes {
			if sum != nil && i < len(j.shards) {
				j.merger.add(i, query.Pane{Start: sc.Start, Summary: *sum})
			}
		}
	}
	j.mu.Unlock()
	for _, sh := range j.shards {
		sh.mu.Lock()
		sh.observed = j.seq
		sh.deliver(sh.wm)
		sh.mu.Unlock()
	}
	return nil
}

// snapshot is the shard's session snapshot, in the format
// streamapprox.RestoreSession reads: the session the shard samples as,
// with a copy of its group's sampler while it shares. Callers hold
// lockSampler.
func (sh *shard) snapshot() ([]byte, error) {
	st := sh.job.spec.session(sh.idx)
	st.State = sh.sampler().State()
	st.Late += sh.lateOff
	st.Panes = sh.panes
	return json.Marshal(st)
}

// restore rebuilds the shard's own sampler, its controller's position and
// the panes it had not handed over from a session snapshot of any
// version.
func (sh *shard) restore(data []byte) error {
	st, err := pane.Decode(data)
	if err != nil {
		return err
	}
	if sh.ctl != nil {
		sh.ctl = adaptive.NewController(sh.job.spec.TargetError, st.State.Fraction)
	}
	if sh.ps, err = st.State.Restore(sh.job.spec.Slide, sh.fraction()); err != nil {
		return err
	}
	sh.wm = stream.TimeFromNanos(sh.ps.Watermark())
	sh.panes, _, err = st.Windows(sh.q, sh.job.spec.Window, sh.job.spec.Slide)
	return err
}

// upgrade brings a version 1–3 checkpoint to version 4: each pending
// window is merged as that version's merger merged it, to be served
// first on restore, and every window up to the last it merged or held
// counts as served. A pending window is served with the parts it holds:
// a shard that had not yet sent its part adds nothing to it. The shards'
// sessions still hold panes, handed to the merger on restore like any
// others; those whose every window was served are dropped.
func upgrade(cf *checkpointFile) {
	slices.SortFunc(cf.Pending, func(a, b pendingCheckpoint) int { return a.Start.Compare(b.Start) })
	starts := cf.Fired
	for _, pc := range cf.Pending {
		cf.upgraded = append(cf.upgraded, mergeLegacy(&cf.Spec, pc.Start, pc.Parts, cf.Version < 3))
		starts = append(starts, pc.Start)
	}
	for _, start := range starts {
		if end := start.Add(cf.Spec.Window); end.After(cf.Served) {
			cf.Served = end
		}
	}
	cf.Pending, cf.Fired, cf.Version = nil, nil, checkpointVersion
}

// mergeLegacy merges one version 1–3 pending window's parts, in shard
// order, by the disjoint-population algebra that version's merger applied
// to each part's variance and degrees of freedom: totals add
// (estimate.MergeSums), means weight parts by item counts
// (estimate.MergeMeans), each group over the parts reporting it, each
// bucket over all. A version 1 or 2 part carries no variance: it gets the
// one that merger recovered from the bound, (Bound/z)² with DF 0.
func mergeLegacy(spec *Spec, start time.Time, parts []*legacyPart, boundOnly bool) MergedWindow {
	conf := spec.level()
	var ests []estimate.Estimate
	var counts []int64
	add := func(e streamapprox.Estimate, count int64) {
		if boundOnly {
			sd := e.Bound / conf.Sigmas()
			e.Variance, e.DF = sd*sd, 0
		}
		ests = append(ests, estimate.Estimate{Value: e.Value, Variance: e.Variance, DF: e.DF, Bound: e.Bound, Confidence: conf})
		counts = append(counts, count)
	}
	merge := func(mean bool) PointEstimate {
		e := estimate.MergeSums(ests)
		if mean {
			e = estimate.MergeMeans(ests, counts)
		}
		ests, counts = ests[:0], counts[:0]
		return PointEstimate{Value: e.Value, Error: e.Bound}
	}
	mean := spec.Kind == "mean" || spec.Kind == "groupby-mean"
	parts = slices.DeleteFunc(parts, func(p *legacyPart) bool { return p == nil })
	out := MergedWindow{Start: start, End: start.Add(spec.Window), Confidence: conf.String(), Shards: len(parts)}
	var keys []string
	for _, p := range parts {
		out.Items += p.Items
		out.Sampled += p.Sampled
		add(p.Overall, p.Items)
		for k := range p.Groups {
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	overall := merge(mean)
	out.Value, out.Error = overall.Value, overall.Error
	for _, k := range keys {
		for _, p := range parts {
			if g, ok := p.Groups[k]; ok {
				add(g, p.GroupItems[k])
			}
		}
		if out.Groups == nil {
			out.Groups = make(map[string]PointEstimate, len(keys))
		}
		out.Groups[k] = merge(mean)
	}
	if f := slices.IndexFunc(parts, func(p *legacyPart) bool { return len(p.Buckets) > 0 }); f >= 0 {
		out.Buckets = make([]BucketEstimate, len(parts[f].Buckets))
		for i, b := range parts[f].Buckets {
			for _, p := range parts {
				if i < len(p.Buckets) {
					add(p.Buckets[i].Count, 0)
				}
			}
			out.Buckets[i] = BucketEstimate{Lo: b.Lo, Hi: b.Hi, Count: merge(false)}
		}
	}
	return out
}

// checkpointPath is dir/<id>.json.
func checkpointPath(dir, id string) string {
	return filepath.Join(dir, id+".json")
}

// loadCheckpoints reads every query checkpoint in dir, sorted by id.
// Files starting with "_" are skipped.
func loadCheckpoints(dir string) ([]*checkpointFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []*checkpointFile
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") || strings.HasPrefix(e.Name(), "_") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var cf checkpointFile
		if err := json.Unmarshal(data, &cf); err != nil {
			return nil, fmt.Errorf("checkpoint %s: %w", e.Name(), err)
		}
		// v1 (per-query consumer offsets) restores as v2: the offset
		// fields carry the same "next offset this query needs" meaning.
		if cf.Version < 1 || cf.Version > checkpointVersion {
			return nil, fmt.Errorf("checkpoint %s: unsupported version %d", e.Name(), cf.Version)
		}
		if cf.Version < checkpointVersion {
			upgrade(&cf)
		}
		out = append(out, &cf)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out, nil
}
