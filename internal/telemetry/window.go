package telemetry

import (
	"sort"
	"time"
)

// Sliding windows.
//
// The SLO engine evaluates objectives over rolling time windows: "the
// p99 end-to-end latency over the last minute", "the error rate over the
// last ten seconds". Both are implemented as bucket rings: the window is
// divided into fixed-width time buckets, samples land in the bucket their
// timestamp falls into, and a query merges the buckets still inside the
// window. Advancing time lazily retires buckets (their epoch no longer
// fits), so there is no background goroutine and queries at any
// moment see exactly the samples whose age is below the window span.
//
// Clock discipline: samples may arrive slightly out of order (worker
// goroutines race to record). A sample whose timestamp is older than the
// newest bucket already opened is clamped into the oldest bucket still
// inside the window — it is never dropped and never resurrects a retired
// bucket, so a skewed clock cannot corrupt the ring. Samples from the
// future are clamped to "now".

// windowBuckets is how many buckets a window is divided into: enough
// resolution that the window slides smoothly, few enough that a quantile
// merge stays cheap.
const windowBuckets = 16

// bucketSampleCap bounds how many raw values one bucket retains for
// quantile queries. Past the cap the bucket keeps counting (rates stay
// exact) but stops storing values, so quantiles over a flooded window
// are computed from the first bucketSampleCap samples per bucket.
const bucketSampleCap = 4096

// sampleBucket is one time slice of a sampleWindow.
type sampleBucket struct {
	epoch int64 // bucket index since the unix epoch; -1 = empty
	vals  []int64
	count int64 // all samples, including those past bucketSampleCap
	bad   int64 // samples the objective's predicate marked bad
}

// sampleWindow is a bucketed sliding window of int64 samples (latencies,
// in this package). Not safe for concurrent use; the engine locks.
type sampleWindow struct {
	bucketNs int64
	buckets  [windowBuckets]sampleBucket
	// lastEpoch is the newest bucket epoch a sample or query has touched;
	// skewed (older) samples are clamped against it.
	lastEpoch int64
}

// newSampleWindow builds a window spanning roughly span (the ring covers
// windowBuckets buckets of span/windowBuckets each).
func newSampleWindow(span time.Duration) *sampleWindow {
	if span <= 0 {
		span = time.Minute
	}
	w := &sampleWindow{bucketNs: int64(span) / windowBuckets}
	if w.bucketNs < 1 {
		w.bucketNs = 1
	}
	for i := range w.buckets {
		w.buckets[i].epoch = -1
	}
	return w
}

// epochAt clamps a sample timestamp into the valid epoch range: no newer
// than now's epoch, no older than the oldest epoch still in the window.
func (w *sampleWindow) epochAt(tsNs int64) int64 {
	e := tsNs / w.bucketNs
	if e > w.lastEpoch {
		w.lastEpoch = e
	}
	if min := w.lastEpoch - windowBuckets + 1; e < min {
		e = min
	}
	return e
}

// bucketFor returns the live bucket for epoch e, resetting the slot if a
// previous ring lap still occupies it.
func (w *sampleWindow) bucketFor(e int64) *sampleBucket {
	b := &w.buckets[e%windowBuckets]
	if b.epoch != e {
		b.epoch = e
		b.vals = b.vals[:0]
		b.count = 0
		b.bad = 0
	}
	return b
}

// Add records one sample at tsNs (unix-ish nanoseconds; any monotonic
// base works as long as it is consistent). bad marks the sample as an
// objective violation so rates need no second pass.
func (w *sampleWindow) Add(tsNs, v int64, bad bool) {
	b := w.bucketFor(w.epochAt(tsNs))
	b.count++
	if bad {
		b.bad++
	}
	if len(b.vals) < bucketSampleCap {
		b.vals = append(b.vals, v)
	}
}

// live reports whether bucket b is inside the window ending at epoch
// `now` (inclusive).
func liveBucket(b *sampleBucket, nowEpoch int64) bool {
	return b.epoch >= 0 && b.epoch > nowEpoch-windowBuckets && b.epoch <= nowEpoch
}

// Counts returns (total, bad) over the window ending at nowNs.
func (w *sampleWindow) Counts(nowNs int64) (total, bad int64) {
	nowEpoch := w.epochAt(nowNs)
	for i := range w.buckets {
		if b := &w.buckets[i]; liveBucket(b, nowEpoch) {
			total += b.count
			bad += b.bad
		}
	}
	return total, bad
}

// BadFrac returns the fraction of window samples marked bad, and whether
// the window held any samples at all.
func (w *sampleWindow) BadFrac(nowNs int64) (float64, bool) {
	total, bad := w.Counts(nowNs)
	if total == 0 {
		return 0, false
	}
	return float64(bad) / float64(total), true
}

// Quantile merges the live buckets' retained samples and returns the
// nearest-rank q-quantile (q in [0,1]). ok is false for an empty window.
// A single sample is every quantile of itself.
func (w *sampleWindow) Quantile(nowNs int64, q float64) (int64, bool) {
	nowEpoch := w.epochAt(nowNs)
	var merged []int64
	for i := range w.buckets {
		if b := &w.buckets[i]; liveBucket(b, nowEpoch) {
			merged = append(merged, b.vals...)
		}
	}
	if len(merged) == 0 {
		return 0, false
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(q * float64(len(merged)-1))
	return merged[idx], true
}

// SumRate returns the per-second rate of sample values over the window
// (sum of values / window span in seconds) — used for throughput where
// each sample's value is a count of completed items (usually 1).
func (w *sampleWindow) SumRate(nowNs int64) float64 {
	nowEpoch := w.epochAt(nowNs)
	var total int64
	for i := range w.buckets {
		if b := &w.buckets[i]; liveBucket(b, nowEpoch) {
			total += b.count
		}
	}
	span := float64(w.bucketNs*windowBuckets) / 1e9
	if span <= 0 {
		return 0
	}
	return float64(total) / span
}
