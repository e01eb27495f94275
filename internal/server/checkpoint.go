package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"streamapprox"
)

// Checkpointing under the shared ingest plane splits into two halves:
//
//   - the SHARED half (ingestStateFile): the plane's per-partition
//     offsets — one set for the whole server, since every query rides
//     the same consumer per partition;
//   - the PER-QUERY half (<id>.json): each query's delivery watermarks
//     (the next offset each shard needs), Session snapshots, and the
//     merger's partially merged windows plus the result sequence
//     counter.
//
// A restarted saproxd re-reads the directory, re-positions the plane
// from the shared offsets, re-registers every query, and re-attaches
// each one at its own watermark: queries behind the plane replay the
// gap through the catch-up path, queries ahead of it skip — so a kill
// -9 restart neither loses nor duplicates records for any query, even
// when the crash tore between the shared and per-query files.

// checkpointVersion 3 writes each pending part's estimates with their
// Variance and DF; versions 1 and 2 held value and bound only.
const checkpointVersion = 3

// ingestStateFile holds the shared half; the leading underscore keeps
// it out of the per-query checkpoint glob.
const ingestStateFile = "_ingest.json"

// ingestState is the on-disk form of the shared plane position.
type ingestState struct {
	Version int     `json:"version"`
	Topic   string  `json:"topic"`
	Offsets []int64 `json:"offsets"` // per partition; -1 = never positioned
}

// checkpointFile is the on-disk form of one query's state.
type checkpointFile struct {
	Version int    `json:"version"`
	ID      string `json:"id"`
	Spec    Spec   `json:"spec"`
	Seq     int64  `json:"seq"`

	Shards  []shardCheckpoint   `json:"shards"`
	Pending []pendingCheckpoint `json:"pending,omitempty"`
	Marks   []time.Time         `json:"marks,omitempty"`
	// Fired lists recently merged window starts so a restarted merger
	// keeps suppressing shard stragglers for windows already served.
	Fired []time.Time `json:"fired,omitempty"`
}

// shardCheckpoint is one shard's resumable state. Offset is the
// query's private delivery watermark: the next offset this query needs
// from the partition (version 1 wrote the per-query consumer offset
// here, which means the same thing, so v1 files restore unchanged).
type shardCheckpoint struct {
	Partition int             `json:"partition"`
	Offset    int64           `json:"offset"`
	Watermark time.Time       `json:"watermark"`
	Records   int64           `json:"records"`
	Sampled   int64           `json:"sampled"`
	Session   json.RawMessage `json:"session"`
}

// pendingCheckpoint is one partially merged window: the per-shard parts
// received so far (nil for shards that have not reported).
type pendingCheckpoint struct {
	Start   time.Time                    `json:"start"`
	FirstAt time.Time                    `json:"firstAt"`
	Parts   []*streamapprox.WindowResult `json:"parts"`
}

// checkpoint captures the job's state, one shard at a time and then the
// merger. A follower's snapshot reads its leader's sampler, so its
// leader's lock is taken before its own, the order of the data path; the
// job lock is never held with a shard's.
func (j *job) checkpoint() (*checkpointFile, error) {
	cf := &checkpointFile{
		Version: checkpointVersion,
		ID:      j.id,
		Spec:    j.spec,
	}
	for _, sh := range j.shards {
		unlock := sh.lockWithLeader()
		snap, err := sh.sess.Snapshot()
		// The counters are read in the hold that fixes the offset: a batch
		// applied after it is replayed on restore, so counting it here
		// would count it twice.
		sc := shardCheckpoint{Partition: sh.idx, Offset: sh.offset, Watermark: sh.watermark,
			Records: sh.records.Load(), Sampled: sh.sampled.Load(), Session: snap}
		unlock()
		if err != nil {
			return nil, fmt.Errorf("shard %d snapshot: %w", sh.idx, err)
		}
		cf.Shards = append(cf.Shards, sc)
	}
	j.mu.Lock()
	cf.Seq = j.seq
	cf.Marks = append([]time.Time(nil), j.merger.marks...)
	for start := range j.merger.fired {
		cf.Fired = append(cf.Fired, start)
	}
	sort.Slice(cf.Fired, func(i, k int) bool { return cf.Fired[i].Before(cf.Fired[k]) })
	starts := make([]time.Time, 0, len(j.merger.pending))
	for start := range j.merger.pending {
		starts = append(starts, start)
	}
	sort.Slice(starts, func(i, k int) bool { return starts[i].Before(starts[k]) })
	for _, start := range starts {
		pm := j.merger.pending[start]
		cf.Pending = append(cf.Pending, pendingCheckpoint{
			Start:   start,
			FirstAt: pm.firstAt,
			Parts:   append([]*streamapprox.WindowResult(nil), pm.parts...),
		})
	}
	j.mu.Unlock()
	return cf, nil
}

// restore rebuilds the job's shards and merger from a checkpoint.
func (j *job) restore(cf *checkpointFile) error {
	byPart := make(map[int]shardCheckpoint, len(cf.Shards))
	for _, sc := range cf.Shards {
		byPart[sc.Partition] = sc
	}
	for _, sh := range j.shards {
		sc, ok := byPart[sh.idx]
		if !ok {
			// Partition added since the checkpoint: start it fresh.
			sh.sess = streamapprox.NewSession(j.spec.sessionConfig(sh.idx))
			continue
		}
		sess, err := streamapprox.RestoreSession(sc.Session)
		if err != nil {
			return fmt.Errorf("shard %d session: %w", sh.idx, err)
		}
		sh.sess = sess
		sh.watermark = sc.Watermark
		sh.records.Store(sc.Records)
		sh.recordsMetric.Add(float64(sc.Records))
		sh.sampled.Store(sc.Sampled)
		sh.offset = sc.Offset
	}
	j.seq = cf.Seq
	j.merger.restore(cf)
	return nil
}

// restore rebuilds the merger's fired windows, shard watermarks and
// partially merged windows from a checkpoint.
func (m *merger) restore(cf *checkpointFile) {
	for _, start := range cf.Fired {
		m.fired[start] = true
	}
	for i, mark := range cf.Marks {
		if i < len(m.marks) {
			m.marks[i] = mark
		}
	}
	for _, pc := range cf.Pending {
		pm := &pendingMerge{
			parts:   make([]*streamapprox.WindowResult, m.shards),
			firstAt: pc.FirstAt,
		}
		for i, p := range pc.Parts {
			if i >= len(pm.parts) {
				break
			}
			if p != nil {
				pm.parts[i] = p
				pm.got++
			}
		}
		m.pending[pc.Start] = pm
	}
}

// upgradeParts gives the pending parts of a version-1 or -2 checkpoint,
// written before parts carried a variance, the one the merger of that
// time recovered from each bound: (Bound/z)² with DF 0, the normal limit.
// A restored window then merges exactly as its writer would have merged
// it.
func upgradeParts(cf *checkpointFile) {
	z := internalConfidence(cf.Spec.confidence()).Sigmas()
	fill := func(e *streamapprox.Estimate) {
		sd := e.Bound / z
		e.Variance, e.DF = sd*sd, 0
	}
	for _, pc := range cf.Pending {
		for _, p := range pc.Parts {
			if p == nil {
				continue
			}
			fill(&p.Overall)
			for k, g := range p.Groups {
				fill(&g)
				p.Groups[k] = g
			}
			for i := range p.Buckets {
				fill(&p.Buckets[i].Count)
			}
		}
	}
	cf.Version = checkpointVersion
}

// checkpointPath is dir/<id>.json.
func checkpointPath(dir, id string) string {
	return filepath.Join(dir, id+".json")
}

// saveIngestState atomically persists the shared plane offsets.
func saveIngestState(dir, topic string, offsets []int64) error {
	data, err := json.Marshal(ingestState{Version: 1, Topic: topic, Offsets: offsets})
	if err != nil {
		return err
	}
	return writeFileAtomic(dir, ingestStateFile, data)
}

// loadIngestState reads the shared plane offsets; a missing file or a
// topic mismatch yields nil (start unpositioned, not an error — the
// per-query watermarks alone are enough for a correct resume).
func loadIngestState(dir, topic string) ([]int64, error) {
	data, err := os.ReadFile(filepath.Join(dir, ingestStateFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var st ingestState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("ingest state: %w", err)
	}
	// An unknown version or foreign topic falls back to the documented
	// unpositioned start rather than interpreting offsets whose
	// semantics may have changed — the per-query watermarks alone are
	// enough for a correct (catch-up based) resume.
	if st.Version != 1 || st.Topic != topic {
		return nil, nil
	}
	return st.Offsets, nil
}

// saveCheckpoint writes one query's checkpoint atomically.
func saveCheckpoint(dir string, cf *checkpointFile) error {
	data, err := json.Marshal(cf)
	if err != nil {
		return fmt.Errorf("marshal checkpoint %s: %w", cf.ID, err)
	}
	return writeFileAtomic(dir, cf.ID+".json", data)
}

// writeFileAtomic writes dir/name via temp file + rename.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name))
}

// loadCheckpoints reads every query checkpoint in dir, sorted by id.
// Files starting with "_" (the shared ingest state) are skipped.
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
		if cf.Version < 3 {
			upgradeParts(&cf)
		}
		out = append(out, &cf)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out, nil
}
