// Package broker implements the stream aggregator of Figure 1: a
// Kafka-like partitioned, append-only message log that combines incoming
// data items from disjoint sub-streams into the single input stream
// StreamApprox consumes.
//
// The model follows Kafka's essentials: named topics split into
// partitions; producers append records (partitioned by key hash or round
// robin); readers fetch by (partition, offset) and keep their own
// position. Partition logs hold batch frames and nothing else: records
// are framed once on the way in (Produce, one columnar frame per
// partition) and decoded once on the way out — into records (Fetch) or,
// column for column, into a columnar batch (FetchBatch). Two transports
// are provided: direct in-process calls (this file) and a
// length-prefixed TCP protocol (transport.go) served by cmd/brokerd.
//
// Partition logs live behind the storage engine in internal/broker/
// storage: in-memory chunked logs by default (broker.New), segmented
// append-only files under a data directory when opened with
// broker.Open — the durable mode that lets a killed broker recover its
// logs and rejoin a running cluster (node.go).
package broker

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/metrics"
	"streamapprox/internal/stream"
)

// Errors returned by broker operations.
var (
	ErrTopicExists      = errors.New("broker: topic already exists")
	ErrUnknownTopic     = errors.New("broker: unknown topic")
	ErrBadPartition     = errors.New("broker: partition out of range")
	ErrOffsetOutOfRange = storage.ErrOffsetOutOfRange
	ErrClosed           = errors.New("broker: closed")
)

// Record is one message in a partition log. The type is owned by the
// storage engine; the alias keeps the broker API unchanged.
type Record = storage.Record

// partition is one partition's log plus the mutex that makes
// check-then-append sequences (replicateAppend's dedup trim) atomic
// against concurrent appends. Reads go straight to the log, which is
// internally synchronized, so they never serialize behind appends.
type partition struct {
	appendMu sync.Mutex
	log      storage.Log
	// cl is the attached cluster node's record of this partition
	// (node.go), nil until the node first touches it.
	cl atomic.Pointer[partState]
}

// topic is a named set of partitions.
type topic struct {
	name       string
	partitions []*partition
	rr         uint64 // round-robin cursor for keyless records
	rrMu       sync.Mutex
}

// StorageConfig selects where a broker keeps its partition logs.
type StorageConfig struct {
	// Dir is the data directory ("" = in-memory, nothing survives the
	// process). Layout: <dir>/<topic>/<partition>/<base>.seg plus
	// state files alongside the segments.
	Dir string
	// Policy is the fsync policy for appended records (default
	// SyncAlways; see storage.SyncPolicy).
	Policy storage.SyncPolicy
	// SegmentRecords is the record capacity of one segment file
	// (default 4096).
	SegmentRecords int
	// FS is the backing filesystem for the partition logs (default the
	// real one). The chaos harness injects disk faults through it.
	FS storage.FS
}

// Broker is an in-process message broker.
type Broker struct {
	mu     sync.RWMutex
	topics map[string]*topic
	names  []string // topics' keys in lexical order, replaced whole on create
	closed bool

	scfg StorageConfig
	reg  *metrics.Registry
}

// New returns an empty in-memory broker.
func New() *Broker {
	b := &Broker{
		topics: make(map[string]*topic),
		reg:    metrics.NewRegistry(),
	}
	b.reg.OnScrape(b.scrapeLogs)
	return b
}

// Metrics returns the broker's metric registry — storage counters and
// histograms accumulate here, per-partition log gauges are computed at
// scrape time, and the TCP server and cluster node add their families
// to the same registry so one /metrics endpoint covers the process.
func (b *Broker) Metrics() *metrics.Registry { return b.reg }

// scrapeLogs publishes the per-partition log gauges: log-end offset and
// the bytes the log's frames occupy, in memory or on disk.
func (b *Broker) scrapeLogs() {
	for _, name := range b.topicNames() {
		t, err := b.topic(name)
		if err != nil {
			return // closed broker; keep the last rendered values
		}
		for p, part := range t.partitions {
			lbl := metrics.Labels{"topic": name, "partition": strconv.Itoa(p)}
			b.reg.Gauge("broker_partition_log_end_offset",
				"next offset to be written in the partition log", lbl).Set(float64(part.log.HighWatermark()))
			_, bytes := part.log.Stats()
			b.reg.Gauge("broker_log_bytes",
				"bytes held by the partition log, in memory or on disk", lbl).Set(float64(bytes))
		}
	}
}

// Open returns a durable broker backed by cfg.Dir, recovering every
// topic and partition log (truncating torn tails) a previous process
// left there. It reads only the topic directories: any other file in
// cfg.Dir (such as the consumer-group offset table an older build kept
// at its root) is left as it is. With cfg.Dir == "" it is equivalent to
// New.
func Open(cfg StorageConfig) (*Broker, error) {
	b := New()
	b.scfg = cfg
	if cfg.Dir == "" {
		return b, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		parts, err := recoverPartitionCount(filepath.Join(cfg.Dir, name))
		if err != nil {
			return nil, err
		}
		if parts == 0 {
			continue
		}
		if err := b.createTopic(name, parts); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// recoverPartitionCount counts the numeric partition subdirectories of
// one recovered topic directory (0..N-1 must all exist).
func recoverPartitionCount(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("broker: %w", err)
	}
	max := -1
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		p, err := strconv.Atoi(e.Name())
		if err != nil || p < 0 {
			continue
		}
		if p > max {
			max = p
		}
	}
	return max + 1, nil
}

// Dir returns the broker's data directory ("" when in-memory).
func (b *Broker) Dir() string { return b.scfg.Dir }

// SyncAlways reports whether the broker fsyncs every append — the mode
// in which state files are fsynced too.
func (b *Broker) syncAlways() bool {
	return b.scfg.Dir != "" && b.scfg.Policy == storage.SyncAlways
}

// partitionDir returns the directory holding one partition's segments
// ("" for an in-memory broker). Cluster state files live next to them.
func (b *Broker) partitionDir(topicName string, p int) string {
	if b.scfg.Dir == "" {
		return ""
	}
	return filepath.Join(b.scfg.Dir, topicName, strconv.Itoa(p))
}

// Close marks the broker closed and syncs + closes every partition
// log; subsequent operations fail with ErrClosed.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, t := range b.topics {
		for _, p := range t.partitions {
			_ = p.log.Close()
		}
	}
}

// newLog builds the storage for one partition per the broker's config.
func (b *Broker) newLog(topicName string, p int) (storage.Log, error) {
	if b.scfg.Dir == "" {
		return storage.NewMemLog(), nil
	}
	return storage.OpenFileLog(b.partitionDir(topicName, p), storage.FileConfig{
		SegmentRecords: b.scfg.SegmentRecords,
		Policy:         b.scfg.Policy,
		FS:             b.scfg.FS,
		Instruments: storage.Instruments{
			FsyncSeconds: b.reg.Histogram("broker_fsync_seconds",
				"fsync latency of partition-log flushes in seconds", nil),
			TornTails: b.reg.Counter("broker_storage_torn_tails_total",
				"torn segment tails truncated during crash recovery", nil),
			SegmentsDropped: b.reg.Counter("broker_storage_segments_dropped_total",
				"segment files dropped past a torn tail during crash recovery", nil),
		},
	})
}

// maxPartitions is the most partitions a topic can have: the create
// and meta ops carry the count in two bytes.
const maxPartitions = 1<<16 - 1

// checkPartitions refuses a partition count the wire cannot carry.
func checkPartitions(n int) error {
	if n > maxPartitions {
		return fmt.Errorf("broker: %d partitions exceed the limit of %d", n, maxPartitions)
	}
	return nil
}

// CreateTopic creates a topic with the given partition count (one if
// below one). It refuses a count above maxPartitions, and a name that
// is empty, "." or "..", or holds a path separator or NUL: a durable
// broker keeps a topic in <Dir>/<name> and reopens each directory there
// as one, so such a name would write outside the data directory or
// reopen as no topic at all.
func (b *Broker) CreateTopic(name string, partitions int) error {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\\\x00") {
		return fmt.Errorf("broker: invalid topic name %q", name)
	}
	if err := checkPartitions(partitions); err != nil {
		return err
	}
	return b.createTopic(name, max(partitions, 1))
}

func (b *Broker) createTopic(name string, partitions int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if _, ok := b.topics[name]; ok {
		return ErrTopicExists
	}
	parts := make([]*partition, partitions)
	for i := range parts {
		log, err := b.newLog(name, i)
		if err != nil {
			for _, p := range parts[:i] {
				_ = p.log.Close()
			}
			return err
		}
		parts[i] = &partition{log: log}
	}
	b.topics[name] = &topic{name: name, partitions: parts}
	i, _ := slices.BinarySearch(b.names, name)
	b.names = slices.Insert(slices.Clip(b.names), i, name) // a new array: readers keep the old
	return nil
}

// topicNames returns the topic names in lexical order. The slice is
// shared: a create replaces it whole, so a caller may keep it but must
// not modify it.
func (b *Broker) topicNames() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.names
}

// Partitions returns the partition count of a topic.
func (b *Broker) Partitions(name string) (int, error) {
	t, err := b.topic(name)
	if err != nil {
		return 0, err
	}
	return len(t.partitions), nil
}

// partition resolves one partition of a topic, range-checking the index.
func (b *Broker) partition(topicName string, p int) (*partition, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	if p < 0 || p >= len(t.partitions) {
		return nil, ErrBadPartition
	}
	return t.partitions[p], nil
}

func (b *Broker) topic(name string) (*topic, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, ErrClosed
	}
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	return t, nil
}

// keyPartition is the key → partition function of the whole tier:
// 32-bit FNV-1a of the key bytes, modulo the partition count. The
// broker routes frames with it and ClusterClient routes records with
// it, so a key lands on the same partition whichever side partitions —
// the property that pins each stratum to one ingest shard. Inlined
// rather than hash/fnv so neither key form allocates.
func keyPartition[K string | []byte](key K, parts int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(parts))
}

// routeKey picks the partition for a key; keyless records go round-robin
// on the topic's own cursor.
func routeKey[K string | []byte](t *topic, key K) int {
	if len(key) == 0 {
		t.rrMu.Lock()
		defer t.rrMu.Unlock()
		p := int(t.rr % uint64(len(t.partitions)))
		t.rr++
		return p
	}
	return keyPartition(key, len(t.partitions))
}

// appendFrames appends a pre-validated frame chunk under the
// partition's append mutex, returning the base offset.
func (p *partition) appendFrames(frames []byte, count int) (int64, error) {
	p.appendMu.Lock()
	defer p.appendMu.Unlock()
	return p.log.AppendFrames(frames, count)
}

// Produce appends records to a topic, routing each by its key — where
// in-process records enter the frame path: a pooled column builder
// frames each partition's share straight from the slice (one key lookup
// per record, one CRC per partition), and each frame is appended as the
// wire's produce op appends a client's bytes. Only key, value and time
// are stored; the caller's slice is not touched. Like ProduceFrames it
// returns the number of records appended, which on an append failure
// counts the partitions that landed before it.
func (b *Broker) Produce(topicName string, recs []Record) (int, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	bb := storage.GetBatchBuilder(len(t.partitions), func(key string) int { return routeKey(t, key) })
	defer bb.Release()
	for i := range recs {
		bb.Add(&recs[i])
	}
	total := 0
	for p, part := range t.partitions {
		frames, count := bb.Frames(p)
		if count == 0 {
			continue
		}
		if _, err := part.appendFrames(frames, count); err != nil {
			return total, err
		}
		total += count
	}
	return total, nil
}

// ProduceFrames appends a pre-validated frame chunk to a topic, routing
// its records by key — once per dictionary entry, keys read in place —
// into one re-framed chunk per partition: no record is ever
// materialized. A frame whose keys share a partition, and any chunk for
// a single-partition topic, passes through as the same bytes. No wire op
// reaches it; the staged benchmark (bench/staged.go) appends through it.
// It returns the number of records appended and the first append
// failure; partitions appended before the failure stay appended and are
// counted, so a caller must not retry the whole batch on error.
func (b *Broker) ProduceFrames(topicName string, frames []byte, count int) (int, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	byPart, counts := make([][]byte, len(t.partitions)), make([]int, len(t.partitions))
	if len(t.partitions) == 1 {
		byPart[0], counts[0] = frames, count
	} else if err := storage.SplitFrames(frames, func(key []byte) int { return routeKey(t, key) }, byPart, counts); err != nil {
		return 0, err
	}
	total := 0
	for p, chunk := range byPart {
		if counts[p] == 0 {
			continue
		}
		if _, err := t.partitions[p].appendFrames(chunk, counts[p]); err != nil {
			return total, err
		}
		total += counts[p]
	}
	return total, nil
}

// replicateAppend applies a leader's replicated chunk at an exact base
// offset. It is idempotent and gap-safe: a chunk already covered by the
// local log is skipped, an overlapping chunk has its duplicate prefix
// trimmed at frame boundaries, and a chunk starting beyond the local
// high watermark appends nothing (the caller backfills from the
// returned watermark). The remainder is appended verbatim. It always
// returns the partition's resulting high watermark.
func (p *partition) replicateAppend(base int64, frames []byte, count int) (int64, error) {
	p.appendMu.Lock()
	defer p.appendMu.Unlock()
	hwm := p.log.HighWatermark()
	if base > hwm {
		return hwm, nil // gap: leader must resend from our watermark
	}
	if skip := hwm - base; skip >= int64(count) {
		return hwm, nil // fully duplicate batch
	} else if skip > 0 {
		var err error
		if frames, err = storage.SliceFrames(nil, frames, int(skip), count); err != nil {
			return hwm, err
		}
		count -= int(skip)
	}
	if _, err := p.log.AppendFrames(frames, count); err != nil {
		return hwm, err
	}
	return p.log.HighWatermark(), nil
}

// truncate discards every record at offset >= hwm — the rejoin path's
// divergence cut, applied before a recovered replica re-enters the
// cluster.
func (p *partition) truncate(hwm int64) error {
	p.appendMu.Lock()
	defer p.appendMu.Unlock()
	return p.log.TruncateTo(hwm)
}

// Fetch reads up to max records from one partition starting at offset —
// where frames leave for the record world: a fetchFrames into a pooled
// buffer, decoded by the same framesToRecords the TCP client uses.
func (b *Broker) Fetch(topicName string, partition int, offset int64, max int) ([]Record, error) {
	fb := getFrame()
	defer putFrame(fb)
	frames, count, err := b.fetchFrames(topicName, partition, offset, max, fb.b)
	fb.b = frames
	if err != nil {
		return nil, err
	}
	return framesToRecords(frames, count, topicName, partition, offset), nil
}

// fetchFrames reads up to max records from one partition as a raw frame
// chunk appended onto buf, returning the extended buffer and the record
// count — used to assemble fetch responses directly into the server's
// pooled write buffer.
func (b *Broker) fetchFrames(topicName string, partition int, offset int64, max int, buf []byte) ([]byte, int, error) {
	p, err := b.partition(topicName, partition)
	if err != nil {
		return buf, 0, err
	}
	if max <= 0 {
		max = 1024
	}
	return p.log.ReadFrames(offset, max, buf)
}

// FetchBatch reads up to max records from one partition directly into a
// columnar batch — the in-process form of the vectorized fetch path.
// The partition log's frames were validated when they entered the
// process, so the decode is a structural walk plus column copies.
func (b *Broker) FetchBatch(topicName string, partition int, offset int64, max int, eb *stream.EventBatch) (int, error) {
	fb := getFrame()
	defer putFrame(fb)
	frames, count, err := b.fetchFrames(topicName, partition, offset, max, fb.b[:0])
	fb.b = frames[:0]
	if err != nil {
		return 0, err
	}
	return framesToBatch(frames, count, offset, eb)
}

// HighWatermark returns the next offset to be written in a partition.
func (b *Broker) HighWatermark(topicName string, partition int) (int64, error) {
	p, err := b.partition(topicName, partition)
	if err != nil {
		return 0, err
	}
	return p.log.HighWatermark(), nil
}
