package sched

import (
	"fmt"
	"sync/atomic"
	"time"

	"batchzk/internal/telemetry"
)

// Options tune a Graph.
type Options struct {
	// Name prefixes the graph's telemetry series (sched/<name>/...).
	Name string
	// InFlight bounds the number of items between admission and emission
	// — the dynamic-loading memory bound. Must be ≥ 1.
	InFlight int
	// Telemetry overrides the process-wide sink when non-nil.
	Telemetry *telemetry.Sink
}

// Graph drives items of type T through a linear chain of named stages,
// one goroutine per stage, and emits them in submission order. Build one
// with NewGraph and drive it with Run (one Run per Graph).
type Graph[T any] struct {
	stages  []string
	depth   int // Options.InFlight
	process func(stage int, item *T)
	recover func(stage int, item *T, r any)

	// Telemetry handles (nil-safe when disabled). The in-flight count is
	// the owner's to record: core's batch prover keeps it as
	// core/jobs/in_flight.
	queueWait []*telemetry.Histogram
	panics    *telemetry.Counter

	started atomic.Bool
}

// NewGraph builds a graph over the named stages. process runs stage
// `stage` on an item; calls for different stages run concurrently, but
// each stage sees its items one at a time, in submission order. Errors
// are the caller's concern — encode them in T. A panicking process call
// is recovered, counted, and reported through the handler installed with
// SetRecover; the item still flows on to emission so the stream never
// stalls.
func NewGraph[T any](stages []string, process func(stage int, item *T), opts Options) (*Graph[T], error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("sched: graph needs at least one stage")
	}
	if process == nil {
		return nil, fmt.Errorf("sched: graph needs a process function")
	}
	if opts.InFlight < 1 {
		return nil, fmt.Errorf("sched: in-flight bound %d < 1", opts.InFlight)
	}
	if opts.Name == "" {
		opts.Name = "graph"
	}
	sink := telemetry.Resolve(opts.Telemetry)
	g := &Graph[T]{
		stages:    append([]string(nil), stages...),
		depth:     opts.InFlight,
		process:   process,
		queueWait: make([]*telemetry.Histogram, len(stages)),
		panics:    sink.Counter("sched/" + opts.Name + "/panics_recovered"),
	}
	for i, name := range stages {
		if name == "" {
			return nil, fmt.Errorf("sched: stage %d has no name", i)
		}
		g.queueWait[i] = sink.Histogram("sched/" + opts.Name + "/stage/" + name + "/queue_wait_ns")
	}
	return g, nil
}

// SetRecover installs the handler called when a process call panics; it
// runs on the stage goroutine before the item is forwarded. Call before
// Run.
func (g *Graph[T]) SetRecover(fn func(stage int, item *T, r any)) { g.recover = fn }

// envelope carries an item with the timestamp of its last enqueue, for
// the queue-wait histograms.
type envelope[T any] struct {
	item T
	enq  time.Time
}

// Run consumes items from in, runs each through every stage in order,
// and hands each to emit, in submission order, on the calling goroutine;
// it returns once the last item has been emitted. Run may be called once
// per Graph.
func (g *Graph[T]) Run(in <-chan T, emit func(T)) {
	if g.started.Swap(true) {
		panic("sched: Graph.Run called twice")
	}
	// Every queue is InFlight deep: the semaphore already bounds the items
	// anywhere in the graph, so a stage never waits on a full queue.
	queues := make([]chan *envelope[T], len(g.stages)+1)
	for i := range queues {
		queues[i] = make(chan *envelope[T], g.depth)
	}
	sem := make(chan struct{}, g.depth)

	// Admission: an item enters only once one of the InFlight slots is free.
	go func() {
		defer close(queues[0])
		for item := range in {
			sem <- struct{}{}
			queues[0] <- &envelope[T]{item: item, enq: time.Now()}
		}
	}()
	for i := range g.stages {
		go g.stage(i, queues[i], queues[i+1])
	}
	// An item keeps its slot until emit returns, so the bound covers every
	// item from admission to hand-off: finished items waiting on a slow
	// consumer hold memory just as items in a stage do.
	for env := range queues[len(g.stages)] {
		emit(env.item)
		<-sem
	}
}

// stage is the goroutine serving stage i: pull, process (with last-resort
// panic recovery), forward.
func (g *Graph[T]) stage(i int, in <-chan *envelope[T], fwd chan<- *envelope[T]) {
	defer close(fwd)
	for env := range in {
		g.queueWait[i].Observe(time.Since(env.enq).Nanoseconds())
		g.runProcess(i, &env.item)
		env.enq = time.Now()
		fwd <- env
	}
}

func (g *Graph[T]) runProcess(stage int, item *T) {
	defer func() {
		if r := recover(); r != nil {
			g.panics.Inc()
			if g.recover != nil {
				g.recover(stage, item, r)
			}
		}
	}()
	g.process(stage, item)
}
