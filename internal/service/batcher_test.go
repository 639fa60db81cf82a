package service

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// takeAll takes every batch from b until Take reports the queue
// drained, returning all items in hand-out order. Safe to call from a
// goroutine other than the test's.
func takeAll[T any](t *testing.T, b *Batcher[T]) []T {
	var items []T
	for {
		batch, ok := b.Take()
		if !ok {
			return items
		}
		if len(batch) == 0 {
			t.Error("empty batch taken")
		}
		if len(batch) > b.Config().MaxBatch {
			t.Errorf("batch of %d items exceeds cap %d", len(batch), b.Config().MaxBatch)
		}
		items = append(items, batch...)
	}
}

// fakeClock is a quota clock that moves only when the test says so.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Invariant: batches never exceed the size cap, and a backlog is taken
// in cap-sized batches. Nothing takes before the drain, so all ten
// items are queued when it starts.
func TestBatcherSizeCap(t *testing.T) {
	b := NewBatcher[int](BatcherConfig{MaxBatch: 4, QueueCap: 128})
	for i := 0; i < 10; i++ {
		if err := b.Submit("a", 0, i); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	b.Drain()
	items := takeAll(t, b)
	if len(items) != 10 {
		t.Fatalf("flushed %d items, want 10", len(items))
	}
	for i, v := range items {
		if v != i {
			t.Fatalf("item %d = %d, want FIFO order", i, v)
		}
	}
}

// Invariant: admission is work-conserving. A taker that is already
// waiting receives a submitted item at once, in an under-full batch,
// with the batcher's clock frozen — so no timer or window is involved.
func TestBatcherHandOff(t *testing.T) {
	b := NewBatcher[int](BatcherConfig{MaxBatch: 1000, QueueCap: 1000})
	frozen := time.Unix(0, 0)
	b.now = func() time.Time { return frozen }
	got := make(chan []int)
	go func() {
		for {
			batch, ok := b.Take()
			if !ok {
				close(got)
				return
			}
			got <- batch
		}
	}()
	for i := 1; i <= 3; i++ {
		if err := b.Submit("a", 0, i); err != nil {
			t.Fatal(err)
		}
		select {
		case batch := <-got:
			if len(batch) != 1 || batch[0] != i {
				t.Fatalf("taker got %v, want [%d]", batch, i)
			}
		case <-time.After(10 * time.Second): // a fail-safe, not a window
			t.Fatalf("a waiting taker never received item %d", i)
		}
	}
	b.Drain()
	if batch, ok := <-got; ok {
		t.Fatalf("taker got %v after drain, want the queue reported drained", batch)
	}
	if s := b.Stats(); s.Batches != 3 || s.Flushed != 3 {
		t.Fatalf("stats batches=%d flushed=%d, want 3/3", s.Batches, s.Flushed)
	}
}

// Invariant: batches fill highest-priority-first, FIFO within a class.
func TestBatcherPriorityOrder(t *testing.T) {
	b := NewBatcher[string](BatcherConfig{MaxBatch: 16, QueueCap: 64, Priorities: 3})
	// Interleave submissions across classes; nothing takes until the
	// drain, so Take sees all five and must re-sort them.
	b.Submit("a", 2, "low-0")
	b.Submit("a", 0, "high-0")
	b.Submit("a", 1, "mid-0")
	b.Submit("a", 2, "low-1")
	b.Submit("a", 0, "high-1")
	b.Drain()
	items := takeAll(t, b)
	want := []string{"high-0", "high-1", "mid-0", "low-0", "low-1"}
	if len(items) != len(want) {
		t.Fatalf("flushed %d items, want %d", len(items), len(want))
	}
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("order %v, want %v", items, want)
		}
	}
}

// Out-of-range priorities clamp instead of panicking or dropping.
func TestBatcherPriorityClamp(t *testing.T) {
	b := NewBatcher[int](BatcherConfig{MaxBatch: 8, Priorities: 2})
	if err := b.Submit("a", -5, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Submit("a", 99, 2); err != nil {
		t.Fatal(err)
	}
	b.Drain()
	if items := takeAll(t, b); len(items) != 2 {
		t.Fatalf("flushed %d items, want 2", len(items))
	}
}

// Invariant: queue depth is bounded; submissions above the cap get
// ErrQueueFull and are NOT admitted (no token spent, no item queued).
func TestBatcherQueueCapBackpressure(t *testing.T) {
	b := NewBatcher[int](BatcherConfig{MaxBatch: 1000, QueueCap: 8})
	var full int
	for i := 0; i < 20; i++ {
		err := b.Submit("a", 0, i)
		if errors.Is(err, ErrQueueFull) {
			full++
		} else if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if full != 12 {
		t.Fatalf("%d rejections, want 12 (cap 8 of 20)", full)
	}
	s := b.Stats()
	if s.Accepted != 8 || s.RejectedQueue != 12 {
		t.Fatalf("stats accepted=%d rejectedQueue=%d, want 8/12", s.Accepted, s.RejectedQueue)
	}
	b.Drain()
	if items := takeAll(t, b); len(items) != 8 {
		t.Fatalf("flushed %d items, want 8", len(items))
	}
}

// Invariant: per-tenant quota accounting is exact under concurrent
// submission — with a hard allowance of K tokens and many goroutines
// racing, exactly K submissions are admitted, and every rejection is a
// QuotaError carrying a Retry-After hint.
func TestBatcherQuotaExactUnderConcurrency(t *testing.T) {
	const allowance = 25
	const submitters = 8
	const perSubmitter = 20 // 160 offered total
	b := NewBatcher[int](BatcherConfig{
		MaxBatch: 32, QueueCap: 1000,
		DefaultQuota: QuotaSpec{Burst: allowance}, // Rate 0: hard allowance
	})
	collected := make(chan []int, 1)
	go func() { collected <- takeAll(t, b) }() // take while admitting

	var accepted, quotaRejected int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				err := b.Submit("tenant", 0, g*perSubmitter+i)
				mu.Lock()
				switch {
				case err == nil:
					accepted++
				default:
					var qe *QuotaError
					if !errors.As(err, &qe) {
						t.Errorf("unexpected error: %v", err)
					} else if qe.RetryAfter <= 0 {
						t.Errorf("quota rejection without Retry-After hint")
					}
					quotaRejected++
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	b.Drain()
	items := <-collected

	if accepted != allowance {
		t.Errorf("accepted %d, want exactly %d", accepted, allowance)
	}
	if quotaRejected != submitters*perSubmitter-allowance {
		t.Errorf("quota-rejected %d, want %d", quotaRejected, submitters*perSubmitter-allowance)
	}
	if int64(len(items)) != accepted {
		t.Errorf("flushed %d items, want the %d accepted", len(items), accepted)
	}
	s := b.Stats()
	if s.Accepted != accepted || s.RejectedQuota != quotaRejected || s.Flushed != accepted {
		t.Errorf("stats %+v disagree with observed accepted=%d rejected=%d", s, accepted, quotaRejected)
	}
}

// A refilling bucket admits again after the refill interval, measured
// on the batcher's own clock.
func TestBatcherQuotaRefill(t *testing.T) {
	b := NewBatcher[int](BatcherConfig{
		MaxBatch: 8, QueueCap: 64,
		Quotas: map[string]QuotaSpec{"slow": {Rate: 100, Burst: 1}},
	})
	clock := &fakeClock{t: time.Unix(0, 0)}
	b.now = clock.now
	if err := b.Submit("slow", 0, 1); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	err := b.Submit("slow", 0, 2)
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("second immediate submit: got %v, want QuotaError", err)
	}
	clock.advance(qe.RetryAfter)
	if err := b.Submit("slow", 0, 3); err != nil {
		t.Fatalf("bucket did not refill at 100 tokens/s after the %v hint: %v", qe.RetryAfter, err)
	}
	b.Drain()
	if items := takeAll(t, b); len(items) != 2 {
		t.Fatalf("took %d items, want the 2 admitted", len(items))
	}
}

// Invariant: drain flushes every accepted job exactly once, even with
// submissions racing the drain; post-drain submissions get ErrDraining.
func TestBatcherDrainFlushesExactlyOnce(t *testing.T) {
	// The drain lands mid-stream: right after the midway-th acceptance,
	// with the other submitters still racing it.
	const midway = 300
	b := NewBatcher[int](BatcherConfig{MaxBatch: 4, QueueCap: 10000})
	var accepted sync.Map
	var acceptedN int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	reached := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := g*1000 + i
				if err := b.Submit("t", g%2, id); err == nil {
					accepted.Store(id, true)
					mu.Lock()
					acceptedN++
					if acceptedN == midway {
						close(reached)
					}
					mu.Unlock()
				} else if !errors.Is(err, ErrDraining) {
					t.Errorf("submit: %v", err)
				}
			}
		}(g)
	}
	collected := make(chan map[int]int, 1)
	go func() {
		seen := make(map[int]int)
		for _, id := range takeAll(t, b) {
			seen[id]++
		}
		collected <- seen
	}()
	<-reached
	b.Drain()
	wg.Wait()
	seen := <-collected

	mu.Lock()
	wantN := acceptedN
	mu.Unlock()
	if int64(len(seen)) != wantN {
		t.Fatalf("flushed %d distinct jobs, want %d accepted", len(seen), wantN)
	}
	accepted.Range(func(k, _ any) bool {
		if seen[k.(int)] != 1 {
			t.Errorf("job %v flushed %d times, want exactly once", k, seen[k.(int)])
		}
		return true
	})
	if err := b.Submit("t", 0, -1); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
}

// Property test: random config + random concurrent traffic, then
// drain; conservation (accepted == flushed, no duplicates, caps held)
// must survive any seed.
func TestBatcherPropertyConservation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := BatcherConfig{
				MaxBatch:   1 + rng.Intn(16),
				QueueCap:   32 + rng.Intn(256),
				Priorities: 1 + rng.Intn(4),
			}
			b := NewBatcher[int](cfg)
			var flushedMu sync.Mutex
			flushed := make(map[int]int)
			consumerDone := make(chan struct{})
			go func() {
				defer close(consumerDone)
				for {
					batch, ok := b.Take()
					if !ok {
						return
					}
					if len(batch) > cfg.MaxBatch {
						t.Errorf("batch %d > cap %d", len(batch), cfg.MaxBatch)
					}
					flushedMu.Lock()
					for _, id := range batch {
						flushed[id]++
					}
					flushedMu.Unlock()
					for n := rng.Intn(4); n > 0; n-- {
						runtime.Gosched()
					}
				}
			}()
			var acceptedMu sync.Mutex
			acceptedIDs := make(map[int]bool)
			var wg sync.WaitGroup
			workers := 2 + rng.Intn(4)
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed*100 + int64(g)))
					for i := 0; i < 150; i++ {
						id := g*10000 + i
						err := b.Submit(fmt.Sprintf("t%d", r.Intn(3)), r.Intn(cfg.Priorities+1)-1, id)
						if err == nil {
							acceptedMu.Lock()
							acceptedIDs[id] = true
							acceptedMu.Unlock()
						}
						if r.Intn(8) == 0 {
							runtime.Gosched()
						}
					}
				}(g)
			}
			wg.Wait()
			b.Drain()
			<-consumerDone

			flushedMu.Lock()
			defer flushedMu.Unlock()
			acceptedMu.Lock()
			defer acceptedMu.Unlock()
			if len(flushed) != len(acceptedIDs) {
				t.Fatalf("flushed %d distinct, accepted %d", len(flushed), len(acceptedIDs))
			}
			for id, n := range flushed {
				if n != 1 {
					t.Errorf("job %d flushed %d times", id, n)
				}
				if !acceptedIDs[id] {
					t.Errorf("job %d flushed but never accepted", id)
				}
			}
		})
	}
}
