package core

import (
	"hash/fnv"
	"strconv"

	"streamapprox/internal/stream"
)

// recordCost models the per-record processing cost a real engine pays for
// every item that reaches the data-parallel job: serialization of the
// record to bytes and a digest over them (standing in for Spark's
// record (de)serialization and Flink's network-buffer serialization).
// This cost is what makes sampling profitable — the entire premise of
// approximate computing is that processing an item downstream costs much
// more than deciding whether to keep it (§1). A record is its (stratum,
// value) pair: that is all a sample keeps of an item, so it is all the
// job is charged for, sampled or not.
func recordCost(stratum string, value float64) uint64 {
	// Encode the record (what the engine pays to ship it to a task)...
	var buf [48]byte
	b := strconv.AppendFloat(buf[:0], value, 'g', -1, 64)
	mark := len(b)
	b = append(b, '|')
	b = append(b, stratum...)
	h := fnv.New64a()
	_, _ = h.Write(b)
	// ...and decode it on the task side.
	v, err := strconv.ParseFloat(string(b[:mark]), 64)
	if err != nil || v != value {
		// Round-trip corruption is a programming error; fold it into the
		// checksum rather than panicking in a hot loop.
		return h.Sum64() ^ 1
	}
	return h.Sum64()
}

// jobResult is the output of the data-parallel job over one batch.
type jobResult struct {
	sum      float64
	checksum uint64
	count    int64
}

// add charges one record to the job.
func (a *jobResult) add(stratum string, value float64) {
	a.sum += value
	a.checksum ^= recordCost(stratum, value)
	a.count++
}

func (a jobResult) merge(b jobResult) jobResult {
	return jobResult{
		sum:      a.sum + b.sum,
		checksum: a.checksum ^ b.checksum,
		count:    a.count + b.count,
	}
}

// runJob executes the per-batch data-parallel job over a dataset: every
// record of every partition is serialized, digested and aggregated, one
// task per partition, and the partial results are merged in partition
// order.
func runJob(parts [][]stream.Event) jobResult {
	partials := make([]jobResult, len(parts))
	parallel(len(parts), func(i int) {
		var acc jobResult
		for _, e := range parts[i] {
			acc.add(e.Stratum, e.Value)
		}
		partials[i] = acc
	})
	var acc jobResult
	for _, p := range partials {
		acc = acc.merge(p)
	}
	return acc
}

// runJobSerial executes the same per-record work single-threaded over
// one stratum's values — the form used inside a pipelined operator, which
// is already one parallel replica of the chain.
func runJobSerial(stratum string, values []float64) jobResult {
	var acc jobResult
	for _, v := range values {
		acc.add(stratum, v)
	}
	return acc
}
