package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"streamapprox/internal/adaptive"
	"streamapprox/internal/pane"
	"streamapprox/internal/query"
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
// fresh start, by the first shard that attaches to each partition; shards
// behind it stand as groups of one where the partition's loop reads
// behind the plane for them (see ingest), and shards ahead of it at their
// offsets until the plane reaches them — so a kill -9 restart neither
// loses nor duplicates records for any query. Each file is fsynced before
// it is renamed into place, so a crash leaves either the old checkpoint or
// the new one.
// Files whose names start with "_" are not checkpoints and are never
// read or removed: an older release kept the plane's position in one.

// checkpointVersion 5 embeds version-5 session snapshots. Version 4, the
// one before it, is the same file with version-4 snapshots, which
// pane.Decode reads. Older versions are refused.
const checkpointVersion = 5

// checkpointFile is the on-disk form of one query's state.
type checkpointFile struct {
	Version int    `json:"version"`
	ID      string `json:"id"`
	Spec    Spec   `json:"spec"`
	Seq     int64  `json:"seq"`
	// Fraction is the controller's under a target error: absent otherwise,
	// and from older files, which resume at their first shard's.
	Fraction float64 `json:"fraction,omitempty"`

	Shards []shardCheckpoint `json:"shards"`
	// Served is the merger's fired mark: every window ending at or before
	// it has been served. Slides are the slides some window still to fire
	// covers, each as the shards' panes of it (nil: none).
	Served time.Time         `json:"served"`
	Slides []slideCheckpoint `json:"slides,omitempty"`
}

// shardCheckpoint is one shard's resumable state. Offset is the
// query's private delivery watermark: the next offset this query needs
// from the partition.
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

// checkpoint captures the job's state, one shard at a time and then the
// merger. A shard snapshots its group's sampler under its partition lock,
// so it waits for the round the partition's loop is applying; the job lock
// is never held with a partition's.
func (j *job) checkpoint() (*checkpointFile, error) {
	cf := &checkpointFile{
		Version: checkpointVersion,
		ID:      j.id,
		Spec:    j.spec,
	}
	for _, sh := range j.shards {
		unlock := sh.lock()
		snap, err := sh.snapshot()
		// The counters are read in the hold that fixes the offset: a batch
		// applied after it is replayed on restore, so counting it here
		// would count it twice.
		sc := shardCheckpoint{Partition: sh.idx, Offset: sh.group.offset, Records: sh.records.Load(),
			Sampled: sh.sampled.Load(), Session: snap}
		unlock()
		if err != nil {
			return nil, fmt.Errorf("shard %d snapshot: %w", sh.idx, err)
		}
		cf.Shards = append(cf.Shards, sc)
	}
	j.mu.Lock()
	cf.Seq = j.seq
	if j.ctl != nil {
		cf.Fraction = j.ctl.Fraction()
	}
	m := j.merger
	cf.Served = m.windows.Fired
	cf.Slides = m.capture()
	j.mu.Unlock()
	return cf, nil
}

// capture copies the merger's slides for a checkpoint, each pane by
// value: the file is written after j.mu is released, and a slide's pane
// table is reused once no window covers it. The arrays a summary points
// to are never written to after Summarize, so they are shared. Callers
// hold j.mu.
func (m *merger) capture() []slideCheckpoint {
	var out []slideCheckpoint
	for _, s := range m.slides {
		sums := make([]query.Summary, len(s.panes))
		sc := slideCheckpoint{Start: s.start, Panes: make([]*query.Summary, len(s.panes))}
		for i, p := range s.panes {
			if p.ok {
				sums[i] = p.sum
				sc.Panes[i] = &sums[i]
			}
		}
		out = append(out, sc)
	}
	return out
}

// restore rebuilds the job's shards, each in a sampling group of its
// own, its controller and its merger from a checkpoint: each shard then
// hands the merger the panes its session holds and its watermark, which
// may fire windows, and takes the controller's fraction.
func (j *job) restore(cf *checkpointFile) error {
	byPart := make(map[int]shardCheckpoint, len(cf.Shards))
	for _, sc := range cf.Shards {
		byPart[sc.Partition] = sc
	}
	fraction := cf.Fraction
	for _, sh := range j.shards {
		sc, ok := byPart[sh.idx]
		if !ok {
			// Partition added since the checkpoint: start it fresh.
			sh.alone(pane.NewSampler(j.spec.Slide, j.spec.Fraction, j.spec.seed(sh.idx)), 0)
			continue
		}
		if sc.Offset < 0 { // the loop reads at a shard's offset as it is
			return fmt.Errorf("shard %d offset %d is negative", sh.idx, sc.Offset)
		}
		ps, err := sh.restore(sc.Session)
		if err != nil {
			return fmt.Errorf("shard %d session: %w", sh.idx, err)
		}
		if fraction == 0 {
			fraction = ps.Fraction()
		}
		sh.records.Store(sc.Records)
		sh.recordsMetric.Add(float64(sc.Records))
		sh.sampled.Store(sc.Sampled)
		sh.alone(ps, sc.Offset)
	}
	j.mu.Lock()
	if j.ctl != nil && fraction > 0 {
		j.ctl = adaptive.NewController(j.spec.TargetError, fraction)
	}
	j.seq = cf.Seq
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
		unlock := sh.lock()
		sh.deliver(sh.group.watermark())
		unlock()
	}
	return nil
}

// snapshot is the shard's session snapshot, in the format
// streamapprox.RestoreSession reads: the session the shard samples as,
// with its group's sampler. Callers hold its partition lock.
func (sh *shard) snapshot() ([]byte, error) {
	st := sh.job.spec.session(sh.idx)
	st.State = sh.group.ps.State()
	st.Late += sh.lateOff
	st.Panes = sh.panes
	return json.Marshal(st)
}

// restore rebuilds the shard's sampler, at the fraction it sampled at,
// and the panes it had not handed over from a session snapshot of a
// version pane.Decode reads.
func (sh *shard) restore(data []byte) (*pane.Sampler, error) {
	st, err := pane.Decode(data)
	if err != nil {
		return nil, err
	}
	ps, err := st.State.Restore(sh.job.spec.Slide, st.State.Fraction)
	if err != nil {
		return nil, err
	}
	sh.panes, _, err = st.Windows(sh.q)
	return ps, err
}

// checkpointPath is dir/<id>.json.
func checkpointPath(dir, id string) string {
	return filepath.Join(dir, id+".json")
}

// loadCheckpoints reads every query checkpoint in dir, sorted by id.
// Files starting with "_" are skipped. A checkpoint of a version other
// than the current one and the one before it fails the load, before
// anything is restored or written.
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
		if cf.Version != checkpointVersion-1 && cf.Version != checkpointVersion {
			return nil, fmt.Errorf("checkpoint %s version %d: this build reads versions %d and %d; commit bf6c4fd is the last to upgrade version 3, and commit 1338931 an older one",
				e.Name(), cf.Version, checkpointVersion-1, checkpointVersion)
		}
		out = append(out, &cf)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out, nil
}
