package core

// Streaming ingestion and emission. ProveBatch buffers the whole batch —
// every witness — before the pipeline admits its first job, and callers
// collect every proof before acting on any. ProveStream retires both
// ends of that assumption: jobs are pulled from an iterator only as the
// pipeline has room for them (the submission channel is unbuffered, so
// at most depth+1 witnesses are ever materialized), and each proof is
// handed to the caller the moment the pipeline emits it. With the
// commit stage never holding an encoded matrix (see protocol.InFlight),
// this is the host-side analogue of the paper's ~2N-block device bound:
// peak memory tracks the in-flight window, not the batch.

// SetStreamingCommit is a no-op kept for existing callers. It used to
// choose between a buffered commitment, which held the whole encoded
// matrix until the opening, and the out-of-core one; every proof now
// takes the out-of-core path (per-column incremental hashes during the
// commitment, challenged columns re-encoded at the opening), whatever
// the argument.
func (bp *BatchProver) SetStreamingCommit(bool) {}

// SetStreamingCommit is a no-op (see BatchProver.SetStreamingCommit).
func (sp *ShardedProver) SetStreamingCommit(bool) {}

// ProveStream pulls jobs from next until it reports exhaustion and calls
// emit once per job, in submission order, as each proof finalizes. next
// is called lazily — the pipeline's in-flight bound is also the bound on
// outstanding witnesses — so next may materialize each witness on
// demand. emit runs on the result goroutine; a slow emit back-pressures
// the pipeline rather than buffering.
func (bp *BatchProver) ProveStream(next func() (Job, bool), emit func(Result)) {
	proveStream(bp.Run, next, emit)
}

// ProveStream is the sharded form: jobs are scattered round-robin as
// they are pulled, results emitted in global submission order.
func (sp *ShardedProver) ProveStream(next func() (Job, bool), emit func(Result)) {
	proveStream(sp.Run, next, emit)
}

func proveStream(run func(<-chan Job) <-chan Result, next func() (Job, bool), emit func(Result)) {
	in := make(chan Job) // unbuffered: a pull happens only when a slot frees
	go func() {
		defer close(in)
		for {
			job, ok := next()
			if !ok {
				return
			}
			in <- job
		}
	}()
	for r := range run(in) {
		emit(r)
	}
}
