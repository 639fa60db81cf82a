// Package service is the multi-tenant proving-as-a-service gateway: the
// layer that turns "many concurrent clients" into one job stream for
// core.ShardedProver's pipeline — the paper's §5 MLaaS scenario served
// as real traffic rather than a pre-built batch.
//
// It has three parts:
//
//   - an admission batcher (this file): work-conserving admission with
//     per-tenant token-bucket quotas, priority queues, a bounded queue
//     with backpressure, and a graceful drain that flushes every
//     accepted job exactly once. A job waits in the queue only while
//     the prover is busy; batches are whatever backlog built up
//     meanwhile, never a timer's worth;
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

// BatcherConfig shapes admission. The zero value gets the documented
// defaults.
type BatcherConfig struct {
	// MaxBatch caps the number of jobs one Take hands out (default 32).
	MaxBatch int
	// QueueCap bounds the number of admitted-but-untaken jobs; above it
	// Submit returns ErrQueueFull (default 1024).
	QueueCap int
	// Priorities is the number of priority classes (default 2). Class 0
	// is the most urgent; Take hands out highest-priority-first, FIFO
	// within a class.
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
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.Priorities <= 0 {
		c.Priorities = 2
	}
	return c
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
// batches × MaxBatch capacity. Take hands out whatever is queued, so
// this is the backlog the consumer found at each hand-off.
func (s BatcherStats) Occupancy(maxBatch int) float64 {
	if s.Batches == 0 || maxBatch <= 0 {
		return 0
	}
	return float64(s.Flushed) / float64(s.Batches*int64(maxBatch))
}

// Batcher is the admission queue: Submit admits items under quotas and
// the queue cap, Take hands them to the consumer the moment it asks and
// any are queued. All methods are safe for concurrent use.
type Batcher[T any] struct {
	cfg BatcherConfig

	mu       sync.Mutex
	ready    sync.Cond // signalled on every admission and on Drain
	queues   [][]T     // one FIFO per priority class
	count    int
	buckets  map[string]*bucket
	draining bool
	stats    BatcherStats

	// now is the quota clock, swappable in tests.
	now func() time.Time
}

// NewBatcher returns an empty batcher. It runs no goroutine: items
// leave only through Take.
func NewBatcher[T any](cfg BatcherConfig) *Batcher[T] {
	b := &Batcher[T]{
		cfg:     cfg.withDefaults(),
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
	b.ready.L = &b.mu
	b.queues = make([][]T, b.cfg.Priorities)
	return b
}

// Config returns the effective (defaulted) configuration.
func (b *Batcher[T]) Config() BatcherConfig { return b.cfg }

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
	defer b.mu.Unlock()
	if b.draining {
		b.stats.RejectedDraining++
		return ErrDraining
	}
	if b.count >= b.cfg.QueueCap {
		b.stats.RejectedQueue++
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
		return &QuotaError{Tenant: tenant, RetryAfter: retry}
	}
	b.queues[priority] = append(b.queues[priority], item)
	b.count++
	b.stats.Accepted++
	b.ready.Signal()
	return nil
}

// Drain stops admission: later Submits get ErrDraining, and Take hands
// out every already-accepted item before it reports the queue drained.
// Safe to call more than once.
func (b *Batcher[T]) Drain() {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	b.ready.Broadcast()
}

// Take blocks until an item is queued or the batcher is drained. It
// returns up to MaxBatch queued items, highest priority class first and
// FIFO within a class, with ok true; once Drain has run and the queue
// is empty it returns ok false. Every accepted item is taken exactly
// once.
func (b *Batcher[T]) Take() (items []T, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.count == 0 {
		if b.draining {
			return nil, false
		}
		b.ready.Wait()
	}
	n := min(b.count, b.cfg.MaxBatch)
	items = make([]T, 0, n)
	for p := 0; p < len(b.queues) && len(items) < n; p++ {
		q := b.queues[p]
		take := min(n-len(items), len(q))
		items = append(items, q[:take]...)
		clear(q[:take]) // release for GC
		b.queues[p] = q[take:]
		if len(b.queues[p]) == 0 {
			b.queues[p] = nil // reset backing array
		}
	}
	b.count -= n
	b.stats.Batches++
	b.stats.Flushed += int64(n)
	return items, true
}
