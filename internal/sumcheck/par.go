package sumcheck

import (
	"fmt"

	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

// The kernel every variant runs on: proveFrom proves, verify checks. Each
// round sweeps the half table twice, to evaluate the round message and to
// fold in the challenge, in deterministic chunks whose partial sums reduce
// in chunk order, so the proof bytes do not depend on the width.

// parallelHalf is the half-table length below which rounds run serially
// (late rounds shrink geometrically; chunking a 64-entry fold costs more
// than the fold). Package var so the bit-identity tests can force the
// parallel path at small sizes.
var parallelHalf = 2048

// foldWidth is the par width of a fold sweep over half entries.
func foldWidth(half int) int {
	if half < parallelHalf {
		return 1
	}
	return 0
}

// terms adds a block's contribution to the round polynomial's values at
// 0, 1, …, d into acc, given aligned entries of every table's two halves:
// entries off, off+1, … of the low halves and the same of the high ones.
type terms func(off int, low, high [][]field.Element, acc []field.Element)

// reduceSums runs body over deterministic chunks of [0, half), each adding
// into its own `arity` partial sums, and reduces them in chunk order into
// out. The chunk count is pinned before dispatch, so a concurrent SetWidth
// cannot change the partial-buffer layout mid-round.
func reduceSums(s *par.Scratch, half, arity int, out []field.Element, body func(lo, hi int, acc []field.Element)) {
	k := 1
	if half >= parallelHalf {
		k = par.Chunks(0, half)
	}
	if k <= 1 {
		body(0, half, out)
		return
	}
	partials := s.ZeroElements(0, arity*k)
	par.ForChunks(k, half, func(c, lo, hi int) {
		body(lo, hi, partials[arity*c:arity*(c+1)])
	})
	for c := 0; c < k; c++ {
		for a := 0; a < arity; a++ {
			out[a].Add(&out[a], &partials[arity*c+a])
		}
	}
}

// Source supplies the entries of a sum-check's tables to its first
// rounds: it fills dst[t][i] with entry lo+i of table t, for every table t
// and every i < len(dst[t]). The prover calls it from several goroutines
// on disjoint ranges, sourceRounds+1 times per entry, and holds only a
// block of each table at a time: the tables the fold after round
// sourceRounds−1 produces, a 2^-sourceRounds fraction of the source, are
// the only ones ever materialized. A caller whose tables are cheap to
// compute on the fly (an eq table, gate inputs gathered from a witness)
// never stores them, and a caller's tables in memory are never written.
type Source func(lo int, dst [][]field.Element)

// sourceRounds is how many rounds a prover evaluates straight from its
// Source. Each one more halves the tables it stores and costs one more
// pass over the source.
const sourceRounds = 2

// TableSource is the Source of tables held in memory. A table shorter
// than the sum-check's 2^n entries reads as zero past its end, so a
// zero-padded table need not store its padding.
func TableSource(tables ...[]field.Element) Source {
	return func(lo int, dst [][]field.Element) {
		for t, tb := range tables {
			n := 0
			if lo < len(tb) {
				n = copy(dst[t], tb[lo:])
			}
			clear(dst[t][n:])
		}
	}
}

// sourceBlock is how many entries of each table a source-round chunk
// fetches from its Source at a time.
const sourceBlock = 512

// sourceBlocks walks [lo, hi) of a source round's half range in blocks,
// handing f the block's offset and the matching entries of every table's
// low half (entries b) and high half (entries b+half).
func sourceBlocks(src Source, k, half, lo, hi int, f func(off int, low, high [][]field.Element)) {
	s := par.GetScratch()
	defer par.PutScratch(s)
	low, high := make([][]field.Element, k), make([][]field.Element, k)
	for off := lo; off < hi; off += sourceBlock {
		n := min(sourceBlock, hi-off)
		for t := 0; t < k; t++ {
			low[t], high[t] = s.Elements(t, n), s.Elements(k+t, n)
		}
		src(off, low)
		src(off+half, high)
		f(off, low, high)
	}
}

// bind returns the Source of src's k tables (2·half entries each) with
// their top variable fixed to r: entry b is lerp(r, src(b), src(b+half)).
func bind(src Source, k, half int, r field.Element) Source {
	return func(lo int, dst [][]field.Element) {
		sourceBlocks(src, k, half, lo, lo+len(dst[0]), func(off int, low, high [][]field.Element) {
			for t := range dst {
				out := dst[t][off-lo:]
				for i := range low[t] {
					out[i].Lerp(&r, &low[t][i], &high[t][i])
				}
			}
		})
	}
}

// tableArenas holds the memory of the stored tables between proofs: they
// die when proveFrom returns, so a steady prover reuses the last proof's
// instead of allocating its own. foldSource writes every entry before any
// round reads one, so a recycled arena needs no clearing.
var tableArenas par.FreeList[[]field.Element]

// newTables lays k tables of length half over arena, which it grows to
// k·half entries if it is shorter.
func newTables(k, half int, arena *[]field.Element) [][]field.Element {
	if cap(*arena) < k*half {
		*arena = make([]field.Element, k*half)
	}
	tables := make([][]field.Element, k)
	for t := range tables {
		tables[t] = (*arena)[t*half : (t+1)*half : (t+1)*half]
	}
	return tables
}

// foldSource stores the k tables of bind(src, k, half, r) in arena; every
// later round folds them in place.
func foldSource(r field.Element, src Source, k, half int, arena *[]field.Element) [][]field.Element {
	tables, bound := newTables(k, half, arena), bind(src, k, half, r)
	par.ForWidth(foldWidth(half), half, func(lo, hi int) {
		dst := make([][]field.Element, k)
		for t := range dst {
			dst[t] = tables[t][lo:hi]
		}
		bound(lo, dst)
	})
	return tables
}

// step is one round over tables in memory: it sums the message into msg,
// draws r = next(round, msg) and folds, dst[t][b] ← lerp(r, src[t][b],
// src[t][b+half]), into dst: src itself or tables at least half as long,
// which it leaves half long. No write lands in a high half, which is only
// read, so any chunking folds as the serial loop does. It returns r.
func step(s *par.Scratch, dst, src [][]field.Element, msg []field.Element, body terms, next challenger, round int) field.Element {
	half := len(src[0]) / 2
	reduceSums(s, half, len(msg), msg, func(lo, hi int, acc []field.Element) {
		low, high := make([][]field.Element, len(src)), make([][]field.Element, len(src))
		for t, tb := range src {
			low[t], high[t] = tb[lo:hi], tb[half+lo:half+hi]
		}
		body(lo, low, high, acc)
	})
	r := next(round, msg)
	par.ForWidth(foldWidth(half), half, func(lo, hi int) {
		for t, tb := range src {
			out := dst[t]
			for b := lo; b < hi; b++ {
				out[b].Lerp(&r, &tb[b], &tb[b+half])
			}
		}
	})
	for t := range dst {
		dst[t] = dst[t][:half]
	}
	return r
}

// Round is one round of Algorithm 1 on caller-owned buffers (one stage of
// the paper's pipelined module, §3.2): it returns the message
// (Σ_b src[b], Σ_b src[b+half]) and writes src folded with the challenge
// next(message) into dst[:len(src)/2]. src is read, never written, unless
// dst is src.
func Round(dst, src []field.Element, next func(RoundPair) field.Element) RoundPair {
	s := par.GetScratch()
	defer par.PutScratch(s)
	var msg [2]field.Element
	step(s, [][]field.Element{dst}, [][]field.Element{src}, msg[:], plainTerms, func(_ int, m []field.Element) field.Element {
		return next(RoundPair{P1: m[0], P2: m[1]})
	}, 0)
	return RoundPair{P1: msg[0], P2: msg[1]}
}

// challenger returns round i's challenge once the prover has sent msg,
// the round polynomial's values at 0, 1, …. A sum-check of no rounds calls
// it once, at round 0, with msg = (claim, 0), and ignores the result.
type challenger func(round int, msg []field.Element) field.Element

// fiatShamir is the challenger of a non-interactive n-round sum-check
// under domain's labels: round 0 first absorbs n and the claim msg[0] +
// msg[1]; each round absorbs msg, as one list or value by value under
// labels if given, and draws the challenge.
func fiatShamir(tr *transcript.Transcript, domain string, n int, labels ...string) challenger {
	return func(i int, msg []field.Element) (r field.Element) {
		if i == 0 {
			var claim field.Element
			claim.Add(&msg[0], &msg[1])
			tr.AppendUint64(domain+"/n", uint64(n))
			tr.AppendElement(domain+"/claim", &claim)
		}
		if i == n {
			return r
		}
		if labels == nil {
			tr.AppendElements(domain+"/round", msg)
		}
		for j, l := range labels {
			tr.AppendElement(l, &msg[j])
		}
		return tr.ChallengeElement(domain + "/r")
	}
}

// fixed is the challenger that hands out rs in round order.
func fixed(rs []field.Element) challenger {
	return func(i int, _ []field.Element) (r field.Element) {
		if i < len(rs) {
			r = rs[i]
		}
		return r
	}
}

// proveFrom is the one sum-check prover: n rounds over the k tables of
// src, each message's arity values summed by body, each challenge drawn
// from next. The first sourceRounds rounds read src, bound to each
// challenge in turn; the fold after the last of them stores the tables,
// which later rounds fold in place. It returns the messages end to end,
// the point (x_1..x_n order), the claim — round 0's values at 0 and 1
// summed, so no pass of its own — and the tables' final values.
func proveFrom(n, k, arity int, src Source, body terms, next challenger) (msgs, point []field.Element, claim field.Element, finals []field.Element) {
	msgs = make([]field.Element, max(n, 1)*arity)
	arena := tableArenas.Get()
	defer tableArenas.Put(arena)
	var tables [][]field.Element
	if n == 0 { // the tables are their one entry, beside a zero high half
		tables = newTables(k, 1, arena)
		src(0, tables)
		body(0, tables, newTables(k, 1, new([]field.Element)), msgs)
		next(0, msgs)
	}
	point = make([]field.Element, n)
	s := par.GetScratch()
	defer par.PutScratch(s)
	for i := range n {
		msg := msgs[i*arity : (i+1)*arity]
		half := 1 << (n - 1 - i)
		r := &point[n-1-i] // round i binds x_{n-i}
		if tables != nil {
			*r = step(s, tables, tables, msg, body, next, i)
			continue
		}
		reduceSums(s, half, arity, msg, func(lo, hi int, acc []field.Element) {
			sourceBlocks(src, k, half, lo, hi, func(off int, low, high [][]field.Element) {
				body(off, low, high, acc)
			})
		})
		*r = next(i, msg)
		if i+1 < sourceRounds && i+1 < n {
			src = bind(src, k, half, *r)
		} else {
			tables = foldSource(*r, src, k, half, arena)
		}
	}
	finals = make([]field.Element, k)
	for t := range finals {
		finals[t] = tables[t][0]
	}
	claim.Add(&msgs[0], &msgs[1])
	return msgs[:n*arity], point, claim, finals
}

// verify is the one sum-check verifier: it checks want rounds of degree-d
// round polynomials, their values at 0..d laid end to end in msgs, against
// claim, drawing each challenge from next; any other round count is
// rejected. It returns the point (x_1..x_n order) and the final claimed
// value, which the caller checks against the polynomial.
func verify(claim field.Element, d, want int, msgs []field.Element, next challenger) ([]field.Element, field.Element, error) {
	if len(msgs) != want*(d+1) {
		return nil, field.Element{}, fmt.Errorf("%w: %d round values, want %d rounds of %d", ErrReject, len(msgs), want, d+1)
	}
	if want == 0 {
		next(0, []field.Element{claim, {}})
	}
	expected, point := claim, make([]field.Element, want)
	for i := range want {
		msg := msgs[i*(d+1) : (i+1)*(d+1)]
		var sum field.Element
		sum.Add(&msg[0], &msg[1])
		if !sum.Equal(&expected) {
			return nil, field.Element{}, fmt.Errorf("%w: round %d sum mismatch", ErrReject, i)
		}
		r := &point[want-1-i]
		*r = next(i, msg)
		if d == 1 {
			expected.Lerp(r, &msg[0], &msg[1])
		} else {
			expected = poly.InterpolateEvalAt(msg, r)
		}
	}
	return point, expected, nil
}
