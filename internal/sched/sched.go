// Package sched is the execution layer of the reproduction: two
// executors over a linear list of stages.
//
//   - Graph (graph.go): the streaming executor internal/core's batch
//     provers run on. Each named stage is served by one goroutine, and
//     FIFO channels join consecutive stages, so items leave in submission
//     order. An admission semaphore, released only once the consumer's
//     emit callback has taken an item, bounds the number of items between
//     admission and hand-off (the paper's dynamic-loading memory bound).
//
//   - RunCycles (cycles.go): the cycle-synchronous executor for modules
//     whose stages share cross-task state (the double-buffer discipline
//     of Figure 5): one task enters per cycle, stages run in descending
//     order within a cycle, with an optional end-of-cycle barrier, so
//     buffer reads never overtake writes.
//
// The paper's §4 thread allocation (threads per module in proportion to
// the module's amortized time) lives in the GPU simulator
// (core.SystemStages → gpusim), where a module's share of the device is
// what the model varies. On the host every stage owns one goroutine and
// the kernels inside it share the par runtime's GOMAXPROCS-wide pool.
//
// Both executors recover a panicking stage instead of letting it wedge
// the run, and record nil-safe telemetry: per-stage queue-wait
// histograms (sched/<graph>/stage/<name>/queue_wait_ns) and a
// panics_recovered counter for Graph; cycle, slot and error series for
// RunCycles.
package sched
