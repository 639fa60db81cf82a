// Package service is the multi-tenant proving-as-a-service gateway: the
// layer that turns "many concurrent clients" into "batched proving" in
// front of core.ShardedProver — the paper's §5 MLaaS scenario served as
// real traffic rather than a pre-built batch.
//
// It has three parts:
//
//   - an admission batcher (this file): jobs from many tenants coalesce
//     into batches under a latency/size window (dynamic batching), with
//     per-tenant token-bucket quotas, priority queues, a bounded queue
//     with backpressure, and a graceful drain that flushes every
//     accepted job exactly once;
//   - the Gateway (service.go): job lifecycle in front of a prover —
//     admission, fan-out, quarantine-aware retry, terminal resolution;
//   - the HTTP API (http.go): submit / poll / stream endpoints with
//     trace-id propagation into the flight recorder.
package service

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Admission errors. ErrDraining and ErrQueueFull are sentinels;
// quota rejections carry a retry hint and are matched with errors.As.
var (
	// ErrDraining rejects submissions once Drain has begun: the gateway
	// finishes accepted work but admits no more.
	ErrDraining = errors.New("service: gateway is draining")
	// ErrQueueFull rejects submissions when the admission queue is at
	// capacity — the backpressure signal (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("service: admission queue full")
)

// QuotaError rejects a submission that exceeded its tenant's token
// bucket. RetryAfter estimates when one token will be available.
type QuotaError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: tenant %q over quota (retry after %v)", e.Tenant, e.RetryAfter)
}

// QuotaSpec is a per-tenant token bucket: Burst tokens capacity,
// refilled at Rate tokens/second. The zero value means unlimited.
// Burst > 0 with Rate == 0 is a hard allowance: exactly Burst jobs are
// ever admitted for the tenant — useful for exact accounting tests.
type QuotaSpec struct {
	Rate  float64
	Burst int
}

func (q QuotaSpec) unlimited() bool { return q.Burst <= 0 }

// bucket is the live token-bucket state for one tenant.
type bucket struct {
	spec   QuotaSpec
	tokens float64
	last   time.Time
}

func (b *bucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	if b.spec.unlimited() {
		return true, 0
	}
	if b.spec.Rate > 0 {
		b.tokens += now.Sub(b.last).Seconds() * b.spec.Rate
		if max := float64(b.spec.Burst); b.tokens > max {
			b.tokens = max
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if b.spec.Rate <= 0 {
		// A hard allowance never refills; tell the client to go away
		// for a while rather than busy-poll.
		return false, time.Second
	}
	return false, time.Duration((1 - b.tokens) / b.spec.Rate * float64(time.Second))
}

// BatcherConfig shapes the admission window. The zero value gets the
// documented defaults.
type BatcherConfig struct {
	// MaxBatch caps the number of jobs per emitted batch (default 32).
	MaxBatch int
	// MaxWait bounds how long the oldest queued job waits before its
	// batch is flushed even if under-full (default 2ms) — the latency
	// half of the latency/size window.
	MaxWait time.Duration
	// QueueCap bounds the number of admitted-but-unflushed jobs; above
	// it Submit returns ErrQueueFull (default 1024).
	QueueCap int
	// Priorities is the number of priority classes (default 2). Class 0
	// is the most urgent; batches are filled highest-priority-first,
	// FIFO within a class.
	Priorities int
	// DefaultQuota applies to tenants absent from Quotas.
	DefaultQuota QuotaSpec
	// Quotas overrides the token bucket per tenant name.
	Quotas map[string]QuotaSpec
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.Priorities <= 0 {
		c.Priorities = 2
	}
	return c
}

// Batch is one flushed group of admitted items.
type Batch[T any] struct {
	Items []T
	// Full reports whether the size cap (rather than the latency
	// window or a drain) triggered the flush.
	Full bool
}

// BatcherStats is a point-in-time snapshot of admission accounting.
type BatcherStats struct {
	Accepted         int64
	RejectedQuota    int64
	RejectedQueue    int64
	RejectedDraining int64
	Batches          int64
	Flushed          int64
	QueueDepth       int
}

// Occupancy is the mean batch fill fraction: flushed items over
// batches × MaxBatch capacity.
func (s BatcherStats) Occupancy(maxBatch int) float64 {
	if s.Batches == 0 || maxBatch <= 0 {
		return 0
	}
	return float64(s.Flushed) / float64(s.Batches*int64(maxBatch))
}

type entry[T any] struct {
	item T
	enq  time.Time
}

// Batcher coalesces admitted items into batches under the configured
// latency/size window. All methods are safe for concurrent use.
type Batcher[T any] struct {
	cfg BatcherConfig

	mu       sync.Mutex
	queues   [][]entry[T] // one FIFO per priority class
	count    int
	buckets  map[string]*bucket
	draining bool
	stats    BatcherStats

	kick chan struct{}
	out  chan Batch[T]
	done chan struct{}

	drainOnce sync.Once
	// now is the clock, swappable in tests.
	now func() time.Time
}

// NewBatcher starts a batcher and its flush loop. Callers must consume
// Out; an unread Out channel is the backpressure that stalls flushing
// (and, transitively, admission once the queue cap is hit).
func NewBatcher[T any](cfg BatcherConfig) *Batcher[T] {
	b := &Batcher[T]{
		cfg:     cfg.withDefaults(),
		buckets: make(map[string]*bucket),
		kick:    make(chan struct{}, 1),
		out:     make(chan Batch[T], 1),
		done:    make(chan struct{}),
		now:     time.Now,
	}
	b.queues = make([][]entry[T], b.cfg.Priorities)
	go b.loop()
	return b
}

// Config returns the effective (defaulted) configuration.
func (b *Batcher[T]) Config() BatcherConfig { return b.cfg }

// Out delivers flushed batches until Drain closes it.
func (b *Batcher[T]) Out() <-chan Batch[T] { return b.out }

// Stats snapshots the admission counters.
func (b *Batcher[T]) Stats() BatcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	s.QueueDepth = b.count
	return s
}

// Submit admits one item for tenant at the given priority class
// (clamped into range). The admission checks run in order — draining,
// queue capacity, tenant quota — under one lock, so quota accounting is
// exact under concurrent submission: a token is consumed if and only if
// the item is admitted.
func (b *Batcher[T]) Submit(tenant string, priority int, item T) error {
	if priority < 0 {
		priority = 0
	}
	if priority >= b.cfg.Priorities {
		priority = b.cfg.Priorities - 1
	}
	b.mu.Lock()
	if b.draining {
		b.stats.RejectedDraining++
		b.mu.Unlock()
		return ErrDraining
	}
	if b.count >= b.cfg.QueueCap {
		b.stats.RejectedQueue++
		b.mu.Unlock()
		return ErrQueueFull
	}
	now := b.now()
	bk := b.buckets[tenant]
	if bk == nil {
		spec, ok := b.cfg.Quotas[tenant]
		if !ok {
			spec = b.cfg.DefaultQuota
		}
		bk = &bucket{spec: spec, tokens: float64(spec.Burst), last: now}
		b.buckets[tenant] = bk
	}
	if ok, retry := bk.take(now); !ok {
		b.stats.RejectedQuota++
		b.mu.Unlock()
		return &QuotaError{Tenant: tenant, RetryAfter: retry}
	}
	b.queues[priority] = append(b.queues[priority], entry[T]{item: item, enq: now})
	b.count++
	b.stats.Accepted++
	b.mu.Unlock()

	select {
	case b.kick <- struct{}{}:
	default:
	}
	return nil
}

// Drain stops admission, flushes every already-accepted item (in as
// many batches as needed), closes Out, and returns. Safe to call more
// than once; concurrent Submits that lose the race get ErrDraining.
func (b *Batcher[T]) Drain() {
	b.drainOnce.Do(func() {
		b.mu.Lock()
		b.draining = true
		b.mu.Unlock()
		select {
		case b.kick <- struct{}{}:
		default:
		}
	})
	<-b.done
}

// popLocked removes up to MaxBatch items, highest priority class first,
// FIFO within a class. Callers hold b.mu.
func (b *Batcher[T]) popLocked() []T {
	n := b.count
	if n > b.cfg.MaxBatch {
		n = b.cfg.MaxBatch
	}
	items := make([]T, 0, n)
	for p := 0; p < len(b.queues) && len(items) < n; p++ {
		q := b.queues[p]
		take := n - len(items)
		if take > len(q) {
			take = len(q)
		}
		for i := 0; i < take; i++ {
			items = append(items, q[i].item)
			q[i] = entry[T]{} // release for GC
		}
		b.queues[p] = q[take:]
		if len(b.queues[p]) == 0 {
			b.queues[p] = nil // reset backing array
		}
	}
	b.count -= len(items)
	return items
}

// oldestLocked returns the earliest enqueue time across all priority
// classes (each class is FIFO, so its head is its oldest). Callers hold
// b.mu and guarantee count > 0.
func (b *Batcher[T]) oldestLocked() time.Time {
	var oldest time.Time
	for _, q := range b.queues {
		if len(q) > 0 && (oldest.IsZero() || q[0].enq.Before(oldest)) {
			oldest = q[0].enq
		}
	}
	return oldest
}

// loop is the flush pump: emit a batch whenever the size cap is hit,
// the oldest queued item has aged past MaxWait, or a drain needs the
// queue emptied; otherwise sleep until the window deadline or the next
// Submit kick.
func (b *Batcher[T]) loop() {
	defer close(b.done)
	defer close(b.out)
	for {
		b.mu.Lock()
		var batch []T
		full := false
		var due time.Time
		switch {
		case b.count >= b.cfg.MaxBatch:
			batch = b.popLocked()
			full = true
		case b.count > 0 && b.draining:
			batch = b.popLocked()
		case b.count > 0:
			oldest := b.oldestLocked()
			if b.now().Sub(oldest) >= b.cfg.MaxWait {
				batch = b.popLocked()
			} else {
				due = oldest.Add(b.cfg.MaxWait)
			}
		}
		if batch != nil {
			b.stats.Batches++
			b.stats.Flushed += int64(len(batch))
		}
		draining, empty := b.draining, b.count == 0
		b.mu.Unlock()

		if batch != nil {
			b.out <- Batch[T]{Items: batch, Full: full}
			continue
		}
		if draining && empty {
			return
		}
		if due.IsZero() {
			<-b.kick
			continue
		}
		t := time.NewTimer(time.Until(due))
		select {
		case <-b.kick:
		case <-t.C:
		}
		t.Stop()
	}
}
