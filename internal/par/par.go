// Package par is the host-side data-parallel kernel runtime of the
// reproduction — the multicore analogue of the paper's premise (§3) that
// the prover's modules decompose into independent data-parallel kernels
// that can saturate the hardware. Every hot kernel (merkle, encoder,
// sumcheck, pcs) funnels its elementwise loops through this
// package instead of spawning bespoke goroutines.
//
// The runtime is a single shared pool of worker goroutines sized by
// SetWidth (default GOMAXPROCS) plus the calling goroutine itself: a
// caller always executes the first chunk inline and then helps drain the
// shared task queue while waiting, so nested parallel kernels (a parallel
// encoder inside a parallel PCS commit, itself running on one of the
// concurrent sched.Graph stage goroutines) degrade gracefully to inline execution instead of deadlocking
// or oversubscribing the machine. A saturated queue likewise falls back
// to inline execution, bounding the total goroutine count at
// width-1 pool workers regardless of how many kernels run concurrently.
//
// Determinism contract: For/ForChunks split [0, n) into chunks with
// boundaries that are a pure function of (width, n). Kernels that reduce
// must accumulate per-chunk partials indexed by chunk and combine them in
// chunk order. Field arithmetic is exact, so any kernel that follows this
// discipline is bit-identical to its serial form — the property the
// parallel-vs-serial tests in every kernel package enforce.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// taskQueueCap bounds the shared task queue; dispatch falls back to
// inline execution when the queue is full, so the cap only trades
// scheduling slack against memory.
const taskQueueCap = 256

var (
	// tasks is the shared work queue every pool worker and every helping
	// caller drains.
	tasks = make(chan func(), taskQueueCap)

	// width is the configured parallel width (pool workers + the caller).
	width atomic.Int64

	// mu guards the worker set against concurrent SetWidth calls.
	mu    sync.Mutex
	quits []chan struct{}

	// Dispatch counters, bumped once per ForChunks call (never per
	// element), so instrumented benchmarks can attribute measured kernel
	// time to items processed and detect inline fallbacks. See Stats.
	statCalls  atomic.Int64
	statItems  atomic.Int64
	statChunks atomic.Int64
	statInline atomic.Int64
)

// RuntimeStats is a snapshot of the runtime's cumulative dispatch
// counters since process start (or the last ResetStats).
type RuntimeStats struct {
	// Calls counts ForChunks invocations (every For/ForWidth/ForScratch
	// call funnels through ForChunks).
	Calls int64 `json:"calls"`
	// Items counts total loop items across all calls — the denominator
	// of a ns/element attribution.
	Items int64 `json:"items"`
	// Chunks counts chunks dispatched (including the caller's chunk 0).
	Chunks int64 `json:"chunks"`
	// Inline counts chunks executed on the calling goroutine: chunk 0 of
	// every call plus queue-saturation fallbacks. Inline == Chunks means
	// the runtime is effectively serial (width 1 or fully saturated).
	Inline int64 `json:"inline"`
}

// Stats returns the cumulative dispatch counters.
func Stats() RuntimeStats {
	return RuntimeStats{
		Calls:  statCalls.Load(),
		Items:  statItems.Load(),
		Chunks: statChunks.Load(),
		Inline: statInline.Load(),
	}
}

// Delta returns s minus prev, for windowed attribution around one
// measured region.
func (s RuntimeStats) Delta(prev RuntimeStats) RuntimeStats {
	return RuntimeStats{
		Calls:  s.Calls - prev.Calls,
		Items:  s.Items - prev.Items,
		Chunks: s.Chunks - prev.Chunks,
		Inline: s.Inline - prev.Inline,
	}
}

// ResetStats zeroes the dispatch counters.
func ResetStats() {
	statCalls.Store(0)
	statItems.Store(0)
	statChunks.Store(0)
	statInline.Store(0)
}

func init() {
	SetWidth(0)
}

// SetWidth resizes the runtime to w-way parallelism (w-1 pool workers
// plus the calling goroutine); w <= 0 restores the GOMAXPROCS default.
// Width 1 makes every kernel run serially inline. Safe to call at any
// time; in-flight chunks finish on whichever goroutine picked them up.
func SetWidth(w int) {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	mu.Lock()
	defer mu.Unlock()
	width.Store(int64(w))
	for len(quits) < w-1 {
		q := make(chan struct{})
		quits = append(quits, q)
		go worker(q)
	}
	for len(quits) > w-1 {
		q := quits[len(quits)-1]
		quits = quits[:len(quits)-1]
		close(q)
	}
}

// Width reports the current parallel width.
func Width() int { return int(width.Load()) }

func worker(quit chan struct{}) {
	// t is cleared after each task: a task closure captures its kernel's
	// buffers, and an idle worker must not keep them reachable.
	var t func()
	for {
		select {
		case <-quit:
			return
		case t = <-tasks:
		}
		t()
		t = nil
	}
}

// Chunks returns the number of chunks ForChunks will split n items into
// at the given width (0 = current default width): min(width, n), at
// least 1. Chunk boundaries are c*n/k .. (c+1)*n/k — a pure function of
// (width, n), which is what makes parallel reductions deterministic.
func Chunks(w, n int) int {
	if w <= 0 {
		w = Width()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForChunks splits [0, n) into Chunks(width, n) deterministic chunks and
// runs fn once per chunk, concurrently up to the runtime width. fn
// receives the chunk index (for ordered partial reductions) and the
// half-open item range. The call returns when every chunk has finished.
// The caller executes chunk 0 itself and helps drain the shared queue
// while waiting, so ForChunks may be nested freely.
func ForChunks(width, n int, fn func(chunk, lo, hi int)) {
	k := Chunks(width, n)
	statCalls.Add(1)
	statItems.Add(int64(n))
	statChunks.Add(int64(k))
	if k <= 1 {
		statInline.Add(1)
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	statInline.Add(1) // the caller's chunk 0 below
	var pending atomic.Int64
	pending.Store(int64(k - 1))
	done := make(chan struct{})
	for c := 1; c < k; c++ {
		c := c
		t := func() {
			fn(c, c*n/k, (c+1)*n/k)
			if pending.Add(-1) == 0 {
				close(done)
			}
		}
		select {
		case tasks <- t:
		default:
			// Queue saturated (deep nesting or many concurrent kernels):
			// run the chunk inline rather than blocking or growing.
			statInline.Add(1)
			t()
		}
	}
	fn(0, 0, n/k)
	for {
		select {
		case <-done:
			return
		case t := <-tasks:
			// Help: execute queued chunks (ours or another kernel's)
			// instead of idling, so a fully busy pool cannot deadlock
			// nested kernels.
			t()
		}
	}
}

// For runs fn over [0, n) in deterministic chunks at the default width.
func For(n int, fn func(lo, hi int)) {
	ForChunks(0, n, func(_, lo, hi int) { fn(lo, hi) })
}

// ForWidth is For with an explicit chunk-count cap, for kernels that must
// bound their own fan-out (e.g. the Merkle and PCS loops that run
// serially below a size threshold, or the sum-check fold's size-derived
// width) or tests that pin the split.
func ForWidth(width, n int, fn func(lo, hi int)) {
	ForChunks(width, n, func(_, lo, hi int) { fn(lo, hi) })
}

// ForScratch is For with a per-chunk scratch arena: each chunk borrows a
// Scratch from the shared pool for its duration, so kernels can reuse
// []field.Element / []sha2.Digest buffers and Hasher state without
// allocating per call.
func ForScratch(width, n int, fn func(s *Scratch, lo, hi int)) {
	ForChunks(width, n, func(_, lo, hi int) {
		s := GetScratch()
		fn(s, lo, hi)
		PutScratch(s)
	})
}
