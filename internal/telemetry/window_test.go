package telemetry

import (
	"testing"
	"time"
)

func TestWindowQuantileEmpty(t *testing.T) {
	w := newSampleWindow(time.Second)
	if v, ok := w.Quantile(0, 0.99); ok || v != 0 {
		t.Fatalf("empty window: got (%d, %v), want (0, false)", v, ok)
	}
	if frac, ok := w.BadFrac(0); ok || frac != 0 {
		t.Fatalf("empty window bad frac: got (%v, %v), want (0, false)", frac, ok)
	}
}

func TestWindowQuantileSingleSample(t *testing.T) {
	w := newSampleWindow(time.Second)
	w.Add(100, 42, false)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		v, ok := w.Quantile(100, q)
		if !ok || v != 42 {
			t.Fatalf("single sample q=%v: got (%d, %v), want (42, true)", q, v, ok)
		}
	}
}

// TestWindowQuantileMergesBuckets spreads samples across several time
// buckets and checks the quantile is computed over the merged set, not
// any single bucket.
func TestWindowQuantileMergesBuckets(t *testing.T) {
	w := newSampleWindow(time.Second)
	bucket := w.bucketNs
	// 100 samples 1..100, one per sub-bucket step, spanning ~8 buckets.
	for i := int64(1); i <= 100; i++ {
		w.Add(i*bucket/13, i, false)
	}
	now := 100 * bucket / 13
	p50, ok := w.Quantile(now, 0.5)
	if !ok {
		t.Fatal("merged window reported empty")
	}
	if p50 < 40 || p50 > 60 {
		t.Fatalf("merged p50 = %d, want ≈ 50", p50)
	}
	p99, _ := w.Quantile(now, 0.99)
	if p99 < 95 {
		t.Fatalf("merged p99 = %d, want ≥ 95", p99)
	}
	if total, _ := w.Counts(now); total != 100 {
		t.Fatalf("merged count = %d, want 100", total)
	}
}

// TestWindowSlidesOutOldSamples advances time past the window span and
// checks retired buckets no longer contribute.
func TestWindowSlidesOutOldSamples(t *testing.T) {
	w := newSampleWindow(time.Second)
	w.Add(0, 1_000_000, true) // an old, bad, slow sample
	// Two window spans later, only the fresh samples remain.
	later := int64(2 * time.Second)
	w.Add(later, 10, false)
	if total, bad := w.Counts(later); total != 1 || bad != 0 {
		t.Fatalf("after slide: total=%d bad=%d, want 1, 0", total, bad)
	}
	if v, ok := w.Quantile(later, 0.99); !ok || v != 10 {
		t.Fatalf("after slide p99 = (%d, %v), want (10, true)", v, ok)
	}
}

// TestWindowClockSkewedSamples feeds a sample stamped before already-seen
// time: it must land inside the window (clamped), never be dropped, and
// never corrupt the ring.
func TestWindowClockSkewedSamples(t *testing.T) {
	w := newSampleWindow(time.Second)
	now := int64(10 * time.Second)
	w.Add(now, 100, false)
	// A worker with a lagging stamp: several windows in the past.
	w.Add(now-int64(5*time.Second), 200, true)
	total, bad := w.Counts(now)
	if total != 2 || bad != 1 {
		t.Fatalf("skewed sample lost: total=%d bad=%d, want 2, 1", total, bad)
	}
	// Mildly skewed (within the window) keeps its own bucket.
	w.Add(now-w.bucketNs, 300, false)
	if total, _ = w.Counts(now); total != 3 {
		t.Fatalf("mildly skewed sample lost: total=%d, want 3", total)
	}
	// Future-stamped samples advance the window rather than vanish. The
	// heavily skewed sample was clamped into the oldest live bucket, so
	// this one-bucket advance retires exactly it: 4 recorded, 3 live.
	w.Add(now+w.bucketNs, 400, false)
	if total, _ = w.Counts(now + w.bucketNs); total != 3 {
		t.Fatalf("after future sample: total=%d, want 3 (clamped sample retired)", total)
	}
}

func TestWindowBadFracAndSumRate(t *testing.T) {
	w := newSampleWindow(time.Second)
	now := int64(time.Second)
	for i := 0; i < 8; i++ {
		w.Add(now, 10, i < 2) // 2 of 8 bad
	}
	frac, ok := w.BadFrac(now)
	if !ok || frac != 0.25 {
		t.Fatalf("bad frac = (%v, %v), want (0.25, true)", frac, ok)
	}
	// 8 samples over a 1s window = 8/s.
	if rate := w.SumRate(now); rate < 7.9 || rate > 8.1 {
		t.Fatalf("sum rate = %v, want ≈ 8", rate)
	}
}

// TestWindowBucketCapKeepsCounting floods one bucket past the sample cap
// and checks rates stay exact even though quantile storage is bounded.
func TestWindowBucketCapKeepsCounting(t *testing.T) {
	w := newSampleWindow(time.Second)
	now := int64(time.Second)
	n := int64(bucketSampleCap + 100)
	for i := int64(0); i < n; i++ {
		w.Add(now, 5, true)
	}
	total, bad := w.Counts(now)
	if total != n || bad != n {
		t.Fatalf("capped bucket counts: total=%d bad=%d, want %d", total, bad, n)
	}
	if v, ok := w.Quantile(now, 0.5); !ok || v != 5 {
		t.Fatalf("capped bucket quantile = (%d, %v), want (5, true)", v, ok)
	}
}
