package telemetry

import (
	"errors"
	"expvar"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing 64-bit counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (no-op on nil; negative d is ignored
// so the counter stays monotone).
func (c *Counter) Add(d int64) {
	if c == nil || d < 0 {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (queue depth, resident bytes) that can
// move both ways; it additionally tracks its high-water mark.
type Gauge struct {
	v    atomic.Int64
	peak atomic.Int64
}

func (g *Gauge) bumpPeak(v int64) {
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Set replaces the gauge value (no-op on nil).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.bumpPeak(v)
}

// Add moves the gauge by d and returns the new value (0 on nil).
func (g *Gauge) Add(d int64) int64 {
	if g == nil {
		return 0
	}
	v := g.v.Add(d)
	g.bumpPeak(v)
	return v
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Peak returns the high-water mark (0 on nil).
func (g *Gauge) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// histBuckets is the number of log2 buckets: bucket 0 holds the value 0,
// bucket i ≥ 1 holds values in [2^(i-1), 2^i).
const histBuckets = 64

// Histogram is a log-bucketed distribution of non-negative int64
// observations (latencies in nanoseconds, byte counts). Observations and
// snapshots are lock-free.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	minInit sync.Once
	buckets [histBuckets]atomic.Int64
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, math.MaxInt64
	}
	return lo, int64(1) << i
}

// Observe records one value (no-op on nil; negatives clamp to 0).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.minInit.Do(func() { h.min.Store(math.MaxInt64) })
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.count.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot captures the distribution. Concurrent Observe calls may add
// observations between field reads, so the snapshot's Count is the total
// of the buckets it captured, not a separate read of the running count:
// the quantiles are then computed against exactly the observations the
// buckets hold. Sum, Min and Max are read afterwards and may already
// include an observation the buckets do not, or lag one they do.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			lo, hi := bucketBounds(i)
			s.Buckets = append(s.Buckets, HistogramBucket{Lo: lo, Hi: hi, Count: n})
			s.Count += n
		}
	}
	s.Sum = h.sum.Load()
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
		if s.Min == math.MaxInt64 { // racing first Observe
			s.Min = 0
		}
		s.P50 = s.Quantile(0.50)
		s.P90 = s.Quantile(0.90)
		s.P99 = s.Quantile(0.99)
	}
	return s
}

// HistogramBucket is one populated log2 bucket: Count values in [Lo, Hi).
type HistogramBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time view of a histogram with summary
// quantiles (estimated by linear interpolation within log2 buckets).
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Mean returns the arithmetic mean of the observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) from the buckets,
// clamped to the observed [Min, Max] range. Edge cases return defined
// values — these estimates feed the machine-readable bench reports, so
// NaN or garbage here would poison BENCH_*.json: an empty histogram
// yields 0, and a single-bucket histogram yields the bucket midpoint
// (collapsing to the exact value when Min == Max).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	est := float64(s.Max)
	if len(s.Buckets) == 1 {
		b := s.Buckets[0]
		est = (float64(b.Lo) + float64(b.Hi)) / 2
	} else {
		total := int64(0)
		for _, b := range s.Buckets {
			total += b.Count
		}
		if total == 0 {
			return 0
		}
		rank := q * float64(total)
		cum := 0.0
		for _, b := range s.Buckets {
			next := cum + float64(b.Count)
			if rank <= next {
				frac := 0.0
				if b.Count > 0 {
					frac = (rank - cum) / float64(b.Count)
				}
				est = float64(b.Lo) + frac*float64(b.Hi-b.Lo)
				break
			}
			cum = next
		}
	}
	// Clamp to the observed range — unless the snapshot was assembled by
	// hand without Min/Max (all-zero range below a positive first
	// bucket), where clamping would collapse every estimate to 0.
	if s.Min == 0 && s.Max == 0 && s.Buckets[0].Lo > 0 {
		return est
	}
	if est < float64(s.Min) {
		est = float64(s.Min)
	}
	if est > float64(s.Max) {
		est = float64(s.Max)
	}
	return est
}

// Registry is a concurrency-safe, name-keyed collection of metrics.
// Lookup methods create on first use; callers on hot paths should cache
// the returned pointers.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// GaugeSnapshot is a point-in-time gauge view.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Peak  int64 `json:"peak"`
}

// Snapshot is a consistent-enough view of every metric in a registry:
// each individual metric is read atomically; the set of metrics is read
// under the registry lock.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Names returns the sorted metric names of kind maps, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot captures every registered metric. Nil-safe.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]GaugeSnapshot{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	r.mu.RUnlock()
	for _, k := range sortedKeys(counters) {
		s.Counters[k] = counters[k].Value()
	}
	for _, k := range sortedKeys(gauges) {
		s.Gauges[k] = GaugeSnapshot{Value: gauges[k].Value(), Peak: gauges[k].Peak()}
	}
	for _, k := range sortedKeys(hists) {
		s.Histograms[k] = hists[k].Snapshot()
	}
	return s
}

// expvarNames tracks which expvar names this package has published, so
// publication is idempotent per name instead of once per process —
// expvar.Publish itself panics on duplicates, and the old sync.Once
// guard silently made every registry after the first invisible on
// /debug/vars.
var (
	expvarMu    sync.Mutex
	expvarNames = map[string]bool{}
)

// ErrExpvarPublished is returned when an expvar name is already taken.
var ErrExpvarPublished = errors.New("telemetry: expvar name already published")

// publishExpvarFunc publishes fn under name exactly once; republishing
// the same name reports ErrExpvarPublished instead of panicking.
func publishExpvarFunc(name string, fn expvar.Func) error {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarNames[name] || expvar.Get(name) != nil {
		return fmt.Errorf("%w: %q", ErrExpvarPublished, name)
	}
	expvarNames[name] = true
	expvar.Publish(name, fn)
	return nil
}

// PublishExpvar exposes the *active* sink's metrics snapshot under the
// expvar name "batchzk.telemetry" (and therefore on /debug/vars). The
// published Func reads the global sink at request time, so it tracks
// later Enable calls. Safe to call more than once.
func PublishExpvar() {
	_ = publishExpvarFunc("batchzk.telemetry", func() any {
		return Active().snapshotOrNil()
	})
}

// PublishExpvar exposes this registry's live snapshot under the given
// expvar name, so multiple registries coexist on /debug/vars (each under
// its own name). Publishing a name twice — including the reserved
// "batchzk.telemetry" — returns ErrExpvarPublished; expvar offers no
// unpublish, so names live for the life of the process.
func (r *Registry) PublishExpvar(name string) error {
	if r == nil {
		return fmt.Errorf("telemetry: cannot publish a nil registry")
	}
	if name == "" {
		return fmt.Errorf("telemetry: expvar name must be non-empty")
	}
	return publishExpvarFunc(name, func() any { return r.Snapshot() })
}

func (s *Sink) snapshotOrNil() any {
	if s == nil || s.Metrics == nil {
		return nil
	}
	return s.Metrics.Snapshot()
}
