package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a/b")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("a/b") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("depth")
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if g.Value() != 1 || g.Peak() != 5 {
		t.Fatalf("gauge value=%d peak=%d, want 1/5", g.Value(), g.Peak())
	}
	g.Set(7)
	if g.Peak() != 7 {
		t.Fatalf("peak after Set = %d", g.Peak())
	}

	// Nil-safety of every recording surface.
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	var nr *Registry
	var ns *Sink
	nc.Add(1)
	ng.Set(1)
	nh.Observe(1)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if nr.Counter("x") != nil || ns.Histogram("y") != nil || ns.Trace() != nil {
		t.Fatal("nil registry/sink must hand out nil instruments")
	}
	nr.Snapshot() // must not panic
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Sum != 1000*1001/2 {
		t.Fatalf("sum = %d", s.Sum)
	}
	// Log-bucketed estimates: within a factor of 2 of the true quantile.
	checks := []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if got < c.want/2 || got > c.want*2 {
			t.Fatalf("q%.2f = %.0f, want within 2x of %.0f", c.q, got, c.want)
		}
	}
	if s.P50 != s.Quantile(0.5) || s.P99 != s.Quantile(0.99) {
		t.Fatal("summary fields must match Quantile")
	}
	// Quantiles clamp to the observed range.
	if s.Quantile(0) < float64(s.Min) || s.Quantile(1) > float64(s.Max) {
		t.Fatal("quantiles escaped [min, max]")
	}
	// Degenerate and edge inputs.
	var empty Histogram
	if es := empty.Snapshot(); es.Count != 0 || es.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must be all-zero")
	}
	var neg Histogram
	neg.Observe(-5) // clamps to 0
	if ns := neg.Snapshot(); ns.Count != 1 || ns.Min != 0 || ns.Max != 0 {
		t.Fatalf("negative observation: %+v", ns)
	}
	var big Histogram
	big.Observe(math.MaxInt64)
	if bs := big.Snapshot(); bs.Max != math.MaxInt64 || bs.Count != 1 {
		t.Fatalf("max observation: %+v", bs)
	}
}

func TestBucketBoundsCoverInt64(t *testing.T) {
	for _, v := range []int64{0, 1, 2, 3, 1023, 1024, math.MaxInt64} {
		i := bucketOf(v)
		lo, hi := bucketBounds(i)
		if v < lo || (v >= hi && hi != math.MaxInt64) {
			t.Fatalf("value %d landed in bucket %d = [%d, %d)", v, i, lo, hi)
		}
	}
}

// TestConcurrentRegistry hammers counters, gauges and histograms from
// many goroutines while snapshotting concurrently, asserting no torn
// reads (bucket totals never below the snapshot count), monotone
// counters across successive snapshots, and exact final totals. Run with
// -race (the Makefile's `race` target does).
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 5000

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Snapshot reader: counters must be monotone between snapshots and
	// histogram bucket sums must equal the reported count.
	snapErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := map[string]int64{}
		for {
			s := r.Snapshot()
			for name, v := range s.Counters {
				if v < prev[name] {
					select {
					case snapErr <- errf("counter %s went backwards: %d < %d", name, v, prev[name]):
					default:
					}
					return
				}
				prev[name] = v
			}
			for name, h := range s.Histograms {
				sum := int64(0)
				for _, b := range h.Buckets {
					sum += b.Count
				}
				if sum != h.Count {
					select {
					case snapErr <- errf("histogram %s: buckets hold %d, count says %d", name, sum, h.Count):
					default:
					}
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("hits")
			h := r.Histogram("lat")
			gauge := r.Gauge("inflight")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(int64(i%1000 + 1))
				gauge.Add(1)
				gauge.Add(-1)
			}
		}(g)
	}
	// Wait for the writers (all but the snapshotter), then stop it.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Writers finish quickly; signal the snapshotter once counters reach
	// the final total.
	for r.Counter("hits").Value() < goroutines*perG {
		runtime.Gosched()
	}
	close(stop)
	<-done

	select {
	case err := <-snapErr:
		t.Fatal(err)
	default:
	}
	s := r.Snapshot()
	if s.Counters["hits"] != goroutines*perG {
		t.Fatalf("final count %d, want %d", s.Counters["hits"], goroutines*perG)
	}
	h := s.Histograms["lat"]
	if h.Count != goroutines*perG || h.Min != 1 || h.Max != 1000 {
		t.Fatalf("final histogram %+v", h)
	}
	if g := s.Gauges["inflight"]; g.Value != 0 || g.Peak < 1 {
		t.Fatalf("final gauge %+v", g)
	}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(9)
	r.Histogram("h").Observe(100)
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["c"] != 3 || s.Gauges["g"].Value != 9 || s.Histograms["h"].Count != 1 {
		t.Fatalf("round-tripped snapshot %+v", s)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	// Empty: every quantile is 0, never NaN.
	var empty HistogramSnapshot
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty quantile(%v) = %v, want 0", q, got)
		}
	}

	// Single observation → single bucket: the quantile collapses to the
	// observed value (midpoint clamped by Min == Max).
	var one Histogram
	one.Observe(5)
	s := one.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 5 {
			t.Fatalf("single-observation quantile(%v) = %v, want 5", q, got)
		}
	}

	// Several observations in one log2 bucket: defined, inside the
	// bucket, NaN-free.
	var oneBucket Histogram
	for _, v := range []int64{4, 5, 6, 7} {
		oneBucket.Observe(v)
	}
	sb := oneBucket.Snapshot()
	if len(sb.Buckets) != 1 {
		t.Fatalf("expected one bucket, got %+v", sb.Buckets)
	}
	for _, q := range []float64{0, 0.5, 0.9, 1} {
		got := sb.Quantile(q)
		if math.IsNaN(got) || got < 4 || got > 7 {
			t.Fatalf("one-bucket quantile(%v) = %v, want in [4, 7]", q, got)
		}
	}
	if mid := sb.Quantile(0.5); mid != 6 {
		t.Fatalf("one-bucket median = %v, want bucket midpoint 6", mid)
	}

	// Hand-assembled snapshot without Min/Max (as a bench report might
	// build): the midpoint must not be clamped to the zero range.
	hand := HistogramSnapshot{
		Count:   4,
		Buckets: []HistogramBucket{{Lo: 4, Hi: 8, Count: 4}},
	}
	if got := hand.Quantile(0.5); got != 6 {
		t.Fatalf("hand-built single-bucket quantile = %v, want 6", got)
	}

	// All-zero observations stay exactly 0.
	var zeros Histogram
	zeros.Observe(0)
	zeros.Observe(0)
	if got := zeros.Snapshot().Quantile(0.9); got != 0 {
		t.Fatalf("all-zero quantile = %v, want 0", got)
	}
}

// expvarRuns numbers the runs of TestExpvarPerRegistry within one process:
// expvar names cannot be unpublished, so under -count each run needs its own.
var expvarRuns atomic.Int64

func TestExpvarPerRegistry(t *testing.T) {
	// Two registries must both be reachable on expvar under their own
	// names — the old process-wide once silently dropped the second.
	run := expvarRuns.Add(1)
	name1 := fmt.Sprintf("batchzk.test.reg1.%d", run)
	name2 := fmt.Sprintf("batchzk.test.reg2.%d", run)
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("hits").Add(11)
	r2.Counter("hits").Add(22)
	if err := r1.PublishExpvar(name1); err != nil {
		t.Fatal(err)
	}
	if err := r2.PublishExpvar(name2); err != nil {
		t.Fatal(err)
	}
	read := func(name string) Snapshot {
		t.Helper()
		v := expvar.Get(name)
		if v == nil {
			t.Fatalf("%s not published", name)
		}
		var s Snapshot
		if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return s
	}
	if got := read(name1).Counters["hits"]; got != 11 {
		t.Fatalf("reg1 hits = %d, want 11", got)
	}
	if got := read(name2).Counters["hits"]; got != 22 {
		t.Fatalf("reg2 hits = %d, want 22", got)
	}

	// The snapshot is live, not captured at publish time.
	r1.Counter("hits").Add(1)
	if got := read(name1).Counters["hits"]; got != 12 {
		t.Fatalf("reg1 snapshot is stale: %d, want 12", got)
	}

	// Republishing a taken name errors instead of panicking.
	err := r2.PublishExpvar(name1)
	if !errors.Is(err, ErrExpvarPublished) {
		t.Fatalf("duplicate publish: err = %v, want ErrExpvarPublished", err)
	}
	// Degenerate inputs.
	if err := (*Registry)(nil).PublishExpvar("x"); err == nil {
		t.Fatal("nil registry publish must error")
	}
	if err := r1.PublishExpvar(""); err == nil {
		t.Fatal("empty name must error")
	}

	// The package-level PublishExpvar stays idempotent alongside.
	PublishExpvar()
	PublishExpvar()
	if expvar.Get("batchzk.telemetry") == nil {
		t.Fatal("batchzk.telemetry not published")
	}
}

func TestGlobalSink(t *testing.T) {
	defer Enable(nil)
	if Active() != nil {
		t.Fatal("telemetry must start disabled")
	}
	s := NewSink(Config{})
	Enable(s)
	if Active() != s || Resolve(nil) != s {
		t.Fatal("global sink not resolvable")
	}
	other := NewSink(Config{})
	if Resolve(other) != other {
		t.Fatal("explicit sink must win")
	}
	Enable(nil)
	if Active() != nil {
		t.Fatal("Enable(nil) must disable")
	}
}
