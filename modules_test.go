package batchzk

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"batchzk/internal/merkle"
	"batchzk/internal/poly"
	"batchzk/internal/sumcheck"
	"batchzk/internal/transcript"
)

// elementsHex serialises field elements for comparison.
func elementsHex(es ...Element) string {
	var sb strings.Builder
	for i := range es {
		b := es[i].ToBytes()
		sb.WriteString(hex.EncodeToString(b[:]))
	}
	return sb.String()
}

// sumcheckHex serialises a proof's rounds and final value; a nil proof
// (a zero result) serialises to "".
func sumcheckHex(proof *SumcheckProof, final Element) string {
	if proof == nil {
		return ""
	}
	var es []Element
	for _, rd := range proof.Rounds {
		es = append(es, rd.P1, rd.P2)
	}
	return elementsHex(append(es, final)...)
}

// taskCause returns the cause joined into err for task i, or nil.
func taskCause(err error, i int) error {
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return nil
	}
	prefix := fmt.Sprintf("task %d: ", i)
	for _, e := range joined.Unwrap() {
		if strings.HasPrefix(e.Error(), prefix) {
			return errors.Unwrap(e)
		}
	}
	return nil
}

// batchCase runs one Batch* call and, task by task, its one-shot
// function; outputs are serialised so the cases share one checker.
type batchCase struct {
	tasks   int
	run     func() ([]string, error)
	oneShot func(i int) (string, error) // output, or the cause the task fails with
	zero    string                      // a failed task's output
	empty   func() error                // the call on an empty batch
}

func encodeCase(enc *Encoder, msgs [][]Element) batchCase {
	return batchCase{
		tasks: len(msgs),
		run: func() ([]string, error) {
			codes, err := BatchEncodeMessages(enc, msgs)
			out := make([]string, len(codes))
			for i := range codes {
				out[i] = elementsHex(codes[i]...)
			}
			return out, err
		},
		oneShot: func(i int) (string, error) {
			cw, err := enc.Encode(msgs[i])
			return elementsHex(cw...), err
		},
		empty: func() error {
			_, err := BatchEncodeMessages(enc, nil)
			return err
		},
	}
}

// sumcheckCase runs BatchProveSums with challenge; a task listed in
// causes is expected to fail with that cause, every other task to match
// sumcheck.ProveWithChallenges on its own challenges.
func sumcheckCase(tables, challenges [][]Element, challenge SumcheckChallenge, causes map[int]error) batchCase {
	return batchCase{
		tasks: len(tables),
		run: func() ([]string, error) {
			results, err := BatchProveSums(tables, challenge)
			out := make([]string, len(results))
			for i, res := range results {
				out[i] = sumcheckHex(res.Proof, res.Final)
			}
			return out, err
		},
		oneShot: func(i int) (string, error) {
			if cause, ok := causes[i]; ok {
				return "", cause
			}
			m, err := poly.NewMultilinear(append([]Element{}, tables[i]...))
			if err != nil {
				return "", err
			}
			proof, final, err := sumcheck.ProveWithChallenges(m, challenges[i])
			if err != nil {
				return "", err
			}
			return sumcheckHex(proof, final), nil
		},
		empty: func() error {
			_, err := BatchProveSums(nil, challenge)
			return err
		},
	}
}

// sumcheckTables draws a random table of 2^n entries and n challenges
// for each n in nVars.
func sumcheckTables(nVars ...int) (tables, challenges [][]Element) {
	for _, n := range nVars {
		tables = append(tables, RandVector(1<<n))
		challenges = append(challenges, RandVector(n))
	}
	return tables, challenges
}

// fixedChallenges answers each round from challenges[task].
func fixedChallenges(challenges [][]Element) SumcheckChallenge {
	return func(task, round int, _, _ Element) Element {
		return challenges[task][round]
	}
}

// check runs tc: every healthy task's output is the one-shot output,
// every bad task fails alone with its own cause joined into the error,
// in task order, and a zero result slot, and an empty batch is refused.
func (tc batchCase) check(t *testing.T) {
	t.Helper()
	got, err := tc.run()
	if len(got) != tc.tasks {
		t.Fatalf("%d results for %d tasks", len(got), tc.tasks)
	}
	var failedTasks []int
	for i := range got {
		want, cause := tc.oneShot(i)
		if cause == nil {
			if got[i] != want {
				t.Errorf("task %d differs from the one-shot function", i)
			}
			if taskCause(err, i) != nil {
				t.Errorf("healthy task %d reported as failed: %v", i, err)
			}
			continue
		}
		failedTasks = append(failedTasks, i)
		if got[i] != tc.zero {
			t.Errorf("failed task %d left a result", i)
		}
		// A sentinel cause must be reachable by errors.Is; the
		// one-shot functions' own errors are compared by text.
		if c := taskCause(err, i); c == nil || !errors.Is(err, cause) && c.Error() != cause.Error() {
			t.Errorf("task %d: cause %v, want %v (error %v)", i, c, cause, err)
		}
	}
	if len(failedTasks) == 0 && err != nil {
		t.Errorf("clean batch failed: %v", err)
	}
	if len(failedTasks) > 0 {
		joined, ok := err.(interface{ Unwrap() []error })
		if !ok || len(joined.Unwrap()) != len(failedTasks) {
			t.Fatalf("error joins the wrong number of tasks, want %d: %v", len(failedTasks), err)
		}
		for k, e := range joined.Unwrap() {
			if prefix := fmt.Sprintf("task %d: ", failedTasks[k]); !strings.HasPrefix(e.Error(), prefix) {
				t.Errorf("joined error %d is %q, want task %d in task order", k, e, failedTasks[k])
			}
		}
	}
	if tc.empty() == nil {
		t.Error("accepted an empty batch")
	}
}

// TestBatchMerkleMatchesSequential checks BatchMerkleRoots against
// merkle.Build task by task, over tasks of mixed block counts.
func TestBatchMerkleMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var tasks [][]MerkleBlock
	for _, n := range []int{1, 2, 16, 3, 64, 8} {
		blocks := make([]MerkleBlock, n)
		for i := range blocks {
			r.Read(blocks[i][:])
		}
		tasks = append(tasks, blocks)
	}
	batchCase{
		tasks: len(tasks),
		run: func() ([]string, error) {
			roots, err := BatchMerkleRoots(tasks)
			out := make([]string, len(roots))
			for i := range roots {
				out[i] = hex.EncodeToString(roots[i][:])
			}
			return out, err
		},
		oneShot: func(i int) (string, error) {
			tree, err := merkle.Build(tasks[i])
			if err != nil {
				return "", err
			}
			root := tree.Root()
			return hex.EncodeToString(root[:]), nil
		},
		zero: hex.EncodeToString(make([]byte, len(Digest{}))),
		empty: func() error {
			_, err := BatchMerkleRoots(nil)
			return err
		},
	}.check(t)
}

// TestBatchSumcheckMatchesSequential checks BatchProveSums against
// sumcheck.ProveWithChallenges task by task, over tables of mixed sizes.
func TestBatchSumcheckMatchesSequential(t *testing.T) {
	tables, challenges := sumcheckTables(6, 1, 4, 6, 6)
	sumcheckCase(tables, challenges, fixedChallenges(challenges), nil).check(t)
}

// TestBatchEncodeMatchesSequential checks BatchEncodeMessages against
// Encoder.Encode task by task, with the recursive code and with the base
// code alone.
func TestBatchEncodeMatchesSequential(t *testing.T) {
	for _, n := range []int{128, 16} { // 16 is below the recursion
		enc, err := NewEncoder(n)
		if err != nil {
			t.Fatal(err)
		}
		msgs := make([][]Element, 4)
		for i := range msgs {
			msgs[i] = RandVector(n)
		}
		t.Run(fmt.Sprint(n), encodeCase(enc, msgs).check)
	}
}

// TestEncodePoisonedTaskIsolated: one wrong-length message fails only
// its own task; every other codeword still matches Encoder.Encode.
func TestEncodePoisonedTaskIsolated(t *testing.T) {
	enc, err := NewEncoder(128)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([][]Element, 6)
	for i := range msgs {
		msgs[i] = RandVector(128)
	}
	msgs[2] = RandVector(64)
	encodeCase(enc, msgs).check(t)
}

// TestSumcheckPanicIsolated: a challenge function that panics fails only
// its task, with the panic value as the cause, beside a task whose table
// is refused; the other tasks' proofs are the one-shot proofs.
func TestSumcheckPanicIsolated(t *testing.T) {
	errOracle := errors.New("oracle corrupted")
	tables, challenges := sumcheckTables(6, 6, 1, 4, 6, 0, 6, 6, 6)
	tables[5] = RandVector(3)
	fixed := fixedChallenges(challenges)
	challenge := func(task, round int, p1, p2 Element) Element {
		if task == 1 && round == 2 {
			panic(errOracle)
		}
		return fixed(task, round, p1, p2)
	}
	sumcheckCase(tables, challenges, challenge, map[int]error{
		1: errOracle,
		5: errors.New("table size 3 is not a power of two ≥ 2"),
	}).check(t)
}

// TestMultipleTaskErrorsAggregated: several failing tasks are all joined
// into the error, in task order.
func TestMultipleTaskErrorsAggregated(t *testing.T) {
	enc, err := NewEncoder(128)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([][]Element, 6)
	for i := range msgs {
		msgs[i] = RandVector(128)
	}
	msgs[0], msgs[3] = RandVector(1), RandVector(64)
	encodeCase(enc, msgs).check(t)
}

// TestBatchSumcheckGolden pins BatchProveSums's proofs on seeded tables,
// with each task's challenges drawn from a transcript of its own round
// messages, to a digest taken before the batch ran on the sum-check
// package's round step.
func TestBatchSumcheckGolden(t *testing.T) {
	const nVars, batch = 7, 5
	rng := rand.New(rand.NewSource(17))
	tables := make([][]Element, batch)
	trs := make([]*transcript.Transcript, batch)
	for i := range tables {
		tables[i] = make([]Element, 1<<nVars)
		for j := range tables[i] {
			var b [64]byte
			rng.Read(b[:])
			tables[i][j].SetBytesWide(b[:])
		}
		trs[i] = transcript.New("golden")
	}
	results, err := BatchProveSums(tables, func(task, _ int, p1, p2 Element) Element {
		trs[task].AppendElement("p1", &p1)
		trs[task].AppendElement("p2", &p2)
		return trs[task].ChallengeElement("r")
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(es ...Element) {
		for i := range es {
			b := es[i].ToBytes()
			h.Write(b[:])
		}
	}
	for _, res := range results {
		for _, rd := range res.Proof.Rounds {
			put(rd.P1, rd.P2)
		}
		put(res.Final)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "e09dec82edcc9d33eb141e22e4adc3bf4ac49904ae17cb6801d72303ca5153fb"; got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
