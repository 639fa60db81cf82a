package pipeline

import (
	"errors"
	"fmt"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/merkle"
	"batchzk/internal/sched"
	"batchzk/internal/sha2"
	"batchzk/internal/sumcheck"
)

// TaskError records one poisoned task: the stage it first failed in and
// the underlying cause (errors.Is/As reach through it).
type TaskError struct {
	Task  int
	Stage int
	Err   error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("task %d failed at stage %d: %v", e.Task, e.Stage, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// TaskErrors aggregates every poisoned task of one pipelined run. The
// schedule does not abort on a task failure: the failing task's
// remaining slots are skipped (its per-task state is simply never
// advanced, which cannot disturb the double-buffer discipline — the
// other tasks' slots read and write exactly the buffers they would
// have), and the healthy tasks run to completion. Callers receive both
// the surviving outputs and this aggregate.
type TaskErrors struct {
	Module string
	Tasks  []TaskError
}

func (e *TaskErrors) Error() string {
	first := &e.Tasks[0]
	if len(e.Tasks) == 1 {
		return fmt.Sprintf("pipeline: %s: %v", e.Module, first)
	}
	return fmt.Sprintf("pipeline: %s: %d tasks failed; first: %v", e.Module, len(e.Tasks), first)
}

// Unwrap exposes every task error to errors.Is/As.
func (e *TaskErrors) Unwrap() []error {
	errs := make([]error, len(e.Tasks))
	for i := range e.Tasks {
		errs[i] = &e.Tasks[i]
	}
	return errs
}

// partialResult hands a schedule's outputs back together with its error:
// on a *TaskErrors the surviving tasks' outputs are valid and returned;
// any other error (invalid geometry, buffer-discipline violation) is
// fatal and yields no results.
func partialResult[T any](results []T, err error) ([]T, error) {
	if err == nil {
		return results, nil
	}
	var te *TaskErrors
	if errors.As(err, &te) {
		return results, err
	}
	return nil, err
}

// runSchedule drives a software pipeline: numStages stages, one task
// entering per cycle, every stage busy on a different task within a cycle
// (the schedule of Figure 4b). It delegates to the unified execution
// layer's cycle-synchronous discipline (sched.RunCycles) — stages run in
// descending order within a cycle so a cycle's writes never overtake its
// reads, which the modules' shared double buffers require — and converts
// the per-task slot errors into this package's *TaskErrors aggregate.
//
// When a process-wide telemetry sink is enabled, each (stage, task) slot
// becomes a "pipeline" layer span on the stage's track under one
// module-level root span, each cycle bumps a counter, and per-slot wall
// time feeds a module histogram — so the Figure 4b schedule is directly
// inspectable in the Chrome trace export.
func runSchedule(module string, numTasks, numStages int, process func(cycle, stage, task int) error, endCycle func(cycle int) error) error {
	if numTasks <= 0 || numStages <= 0 {
		return fmt.Errorf("pipeline: need positive task and stage counts")
	}
	slots, err := sched.RunCycles(numTasks, numStages, process, endCycle, sched.CycleConfig{
		Layer:  "pipeline",
		Module: module,
	})
	if err != nil {
		return err
	}
	if len(slots) > 0 {
		agg := &TaskErrors{Module: module, Tasks: make([]TaskError, len(slots))}
		for i, s := range slots {
			agg.Tasks[i] = TaskError{Task: s.Task, Stage: s.Stage, Err: s.Err}
		}
		return agg
	}
	return nil
}

// BatchMerkle builds one Merkle tree per task by streaming the tasks
// through layer-dedicated stages (§3.1): stage 0 hashes the 512-bit blocks
// into leaves, stage ℓ≥1 builds layer ℓ from layer ℓ−1. Every input must
// have the same power-of-two block count. It returns the roots, which are
// bit-identical to merkle.Build on each input.
func BatchMerkle(tasks [][]merkle.Block) ([]sha2.Digest, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("pipeline: no merkle tasks")
	}
	n := len(tasks[0])
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("pipeline: %d blocks is not a positive power of two", n)
	}
	depth := 0
	for 1<<depth < n {
		depth++
	}
	for i, tk := range tasks {
		if len(tk) != n {
			return nil, fmt.Errorf("pipeline: task %d has %d blocks, want %d", i, len(tk), n)
		}
	}

	numStages := depth + 1 // leaf hashing + one stage per interior layer
	// cur[task] holds the task's current layer while it moves through.
	cur := make([][]sha2.Digest, len(tasks))
	roots := make([]sha2.Digest, len(tasks))

	err := runSchedule("merkle", len(tasks), numStages, func(_, stage, task int) error {
		if stage == 0 {
			// Dynamic loading: only now does this task's data enter the
			// device; hash every block into a leaf digest.
			leaves := make([]sha2.Digest, n)
			for i := range tasks[task] {
				b := tasks[task][i]
				leaves[i] = sha2.Compress((*[sha2.BlockSize]byte)(&b))
			}
			cur[task] = leaves
			return nil
		}
		prev := cur[task]
		next := make([]sha2.Digest, len(prev)/2)
		for i := range next {
			next[i] = sha2.Compress2(&prev[2*i], &prev[2*i+1])
		}
		// Dynamic storing: the consumed layer leaves device memory.
		cur[task] = next
		if stage == numStages-1 {
			roots[task] = next[0]
			cur[task] = nil
		}
		return nil
	}, nil)
	if depth == 0 {
		for t := range tasks {
			if cur[t] != nil {
				roots[t] = cur[t][0]
			}
		}
	}
	return partialResult(roots, err)
}

// SumcheckChallenge supplies the round randomness for one task: called
// with the task index, round number, and the round's message (π_i1, π_i2),
// it returns r_i. The fully pipelined system derives these from Merkle
// roots (§4); tests use fixed vectors to compare against the sequential
// prover.
type SumcheckChallenge func(task, round int, p1, p2 field.Element) field.Element

// SumcheckResult is one task's output from the pipelined module.
type SumcheckResult struct {
	Proof *sumcheck.Proof
	Final field.Element
}

// BatchSumcheck generates one sum-check proof per input table by streaming
// the tables through round-dedicated stages (§3.2). The inter-stage tables
// live in recyclable double buffers with the odd/even read–write
// discipline of Figure 5; the invariant (no buffer both read and written
// in one period) is enforced at every cycle.
func BatchSumcheck(tables [][]field.Element, challenge SumcheckChallenge) ([]SumcheckResult, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("pipeline: no sumcheck tasks")
	}
	size := len(tables[0])
	if size < 2 || size&(size-1) != 0 {
		return nil, fmt.Errorf("pipeline: table size %d is not a power of two ≥ 2", size)
	}
	nVars := 0
	for 1<<nVars < size {
		nVars++
	}
	for i := range tables {
		if len(tables[i]) != size {
			return nil, fmt.Errorf("pipeline: task %d table size %d, want %d", i, len(tables[i]), size)
		}
	}

	// buffers[i] carries the table entering stage i (size 2^{n-i});
	// stage i reads buffers[i] and writes buffers[i+1].
	buffers := make([]*DoubleBuffer[field.Element], nVars+1)
	for i := range buffers {
		buffers[i] = NewDoubleBuffer[field.Element](size >> i)
	}
	results := make([]SumcheckResult, len(tables))
	for t := range results {
		results[t].Proof = &sumcheck.Proof{Rounds: make([]sumcheck.RoundPair, nVars)}
	}

	err := runSchedule("sumcheck", len(tables), nVars, func(_, stage, task int) error {
		in := size >> stage
		var src []field.Element
		if stage == 0 {
			src = tables[task] // dynamic loading from host memory
		} else {
			src = buffers[stage].ReadBuf()[:in]
		}
		dst := buffers[stage+1].WriteBuf()[:in/2]
		results[task].Proof.Rounds[stage] = sumcheck.Round(dst, src, func(m sumcheck.RoundPair) field.Element {
			return challenge(task, stage, m.P1, m.P2)
		})
		if stage == nVars-1 {
			results[task].Final = dst[0]
		}
		return nil
	}, func(int) error {
		for _, db := range buffers {
			if err := db.Advance(); err != nil {
				return err
			}
		}
		return nil
	})
	return partialResult(results, err)
}

// BatchEncode encodes one message per task by streaming the tasks through
// the two interconnected pipelines of Figure 6: a forward pipeline of
// first-matrix multiplications (large → small), the base code, then a
// backward pipeline of second-matrix multiplications (small → large). The
// codewords are bit-identical to enc.Encode on each message.
func BatchEncode(enc *encoder.Encoder, msgs [][]field.Element) ([][]field.Element, error) {
	if len(msgs) == 0 {
		return nil, fmt.Errorf("pipeline: no encoder tasks")
	}
	k := enc.NumStages()
	numStages := 2*k + 1 // forward ×k, base, backward ×k

	type state struct {
		inputs [][]field.Element // stage inputs retained for reassembly
		w      []field.Element   // the growing codeword on the way back
	}
	states := make([]*state, len(msgs))
	out := make([][]field.Element, len(msgs))

	err := runSchedule("encode", len(msgs), numStages, func(_, stage, task int) error {
		switch {
		case stage == 0 && k == 0:
			// Degenerate: base-size messages, single stage.
			if len(msgs[task]) != enc.MessageLen() {
				return fmt.Errorf("pipeline: task %d message length %d, want %d", task, len(msgs[task]), enc.MessageLen())
			}
			cw, err := enc.Encode(msgs[task])
			if err != nil {
				return err
			}
			out[task] = cw
			return nil
		case stage == 0:
			if len(msgs[task]) != enc.MessageLen() {
				return fmt.Errorf("pipeline: task %d message length %d, want %d", task, len(msgs[task]), enc.MessageLen())
			}
			st := &state{inputs: make([][]field.Element, k+1)}
			st.inputs[0] = msgs[task] // dynamic loading
			states[task] = st
			y, err := enc.Stages()[0].First.MulVec(st.inputs[0])
			if err != nil {
				return err
			}
			st.inputs[1] = y
			return nil
		case stage < k:
			// Forward pipeline: first multiplication of level `stage`.
			st := states[task]
			y, err := enc.Stages()[stage].First.MulVec(st.inputs[stage])
			if err != nil {
				return err
			}
			st.inputs[stage+1] = y
			return nil
		case stage == k:
			// Base code between the two pipelines.
			st := states[task]
			base := st.inputs[k]
			w := make([]field.Element, 0, encoder.RateInv*len(base))
			for i := 0; i < encoder.RateInv; i++ {
				w = append(w, base...)
			}
			st.w = w
			return nil
		default:
			// Backward pipeline: second multiplication of level
			// k-1, k-2, …, 0 as the task advances.
			level := 2*k - stage
			st := states[task]
			v, err := enc.Stages()[level].Second.MulVec(st.w)
			if err != nil {
				return err
			}
			cw := make([]field.Element, 0, encoder.RateInv*len(st.inputs[level]))
			cw = append(cw, st.inputs[level]...)
			cw = append(cw, st.w...)
			cw = append(cw, v...)
			st.w = cw
			if stage == numStages-1 {
				out[task] = cw
				states[task] = nil
			}
			return nil
		}
	}, nil)
	return partialResult(out, err)
}
