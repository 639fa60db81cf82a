// Package sched is the execution layer of the reproduction: Graph
// (graph.go), the streaming executor internal/core's batch provers run on.
// Each named stage is served by one goroutine, and FIFO channels join
// consecutive stages, so items leave in submission order. An admission
// semaphore, released only once the consumer's emit callback has taken an
// item, bounds the number of items between admission and hand-off (the
// paper's dynamic-loading memory bound).
//
// The paper's §4 thread allocation (threads per module in proportion to
// the module's amortized time) lives in the GPU simulator
// (core.SystemStages → gpusim), where a module's share of the device is
// what the model varies. On the host every stage owns one goroutine and
// the kernels inside it share the par runtime's GOMAXPROCS-wide pool.
//
// Graph recovers a panicking stage instead of letting it wedge the run,
// and records nil-safe telemetry: per-stage queue-wait histograms
// (sched/<graph>/stage/<name>/queue_wait_ns) and a panics_recovered
// counter.
package sched
