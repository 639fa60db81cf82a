package sumcheck

import (
	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/transcript"
)

// Parallel round kernels shared by every sum-check variant (plain,
// product, affine, triple). Each round of Algorithm 1 does two
// data-parallel sweeps over the half table: an evaluation sweep that
// reduces to the round message, and a fold sweep that binds the round
// challenge. Both split into deterministic chunks; the evaluation sweep
// accumulates per-chunk partials and reduces them in chunk order, so the
// proof bytes are bit-identical to the serial prover for any width.

// parallelHalf is the half-table length below which rounds run serially
// (late rounds shrink geometrically; chunking a 64-entry fold costs more
// than the fold). Package var so the bit-identity tests can force the
// parallel path at small sizes.
var parallelHalf = 2048

// roundChunks resolves the chunk count for a half-table sweep. The count
// is pinned before dispatch so a concurrent SetWidth cannot change the
// partial-buffer layout mid-round.
func roundChunks(half int) int {
	if half < parallelHalf {
		return 1
	}
	return par.Chunks(0, half)
}

// halfSums returns (Σ_b table[b], Σ_b table[b+half]) over the low/high
// halves — the plain variant's round message.
func halfSums(s *par.Scratch, table []field.Element) (p1, p2 field.Element) {
	half := len(table) / 2
	k := roundChunks(half)
	if k <= 1 {
		for b := 0; b < half; b++ {
			p1.Add(&p1, &table[b])
			p2.Add(&p2, &table[b+half])
		}
		return
	}
	partials := s.ZeroElements(0, 2*k)
	par.ForChunks(k, half, func(c, lo, hi int) {
		var s1, s2 field.Element
		for b := lo; b < hi; b++ {
			s1.Add(&s1, &table[b])
			s2.Add(&s2, &table[b+half])
		}
		partials[2*c] = s1
		partials[2*c+1] = s2
	})
	for c := 0; c < k; c++ {
		p1.Add(&p1, &partials[2*c])
		p2.Add(&p2, &partials[2*c+1])
	}
	return
}

// reduceSums runs body over deterministic chunks of [0, half), collecting
// `arity` partial sums per chunk and reducing them in chunk order into
// out. body must add its chunk's contribution into out[0..arity).
func reduceSums(s *par.Scratch, half, arity int, out []field.Element, body func(lo, hi int, acc []field.Element)) {
	k := roundChunks(half)
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

// foldTables binds the round challenge in place: table[b] ← lerp(r,
// table[b], table[b+half]) for every table.
func foldTables(r *field.Element, tables ...[]field.Element) {
	foldTablesInto(r, tables, tables)
}

// foldTablesInto binds the round challenge: dst[t][b] ← lerp(r, src[t][b],
// src[t][b+half]) for every table t, fused per index; dst[t] is src[t]
// itself or a separate buffer of at least half its length. Writes are
// disjoint by index and never land in a high half, which is only read
// during the sweep, so any chunking is bit-identical to the serial fold.
func foldTablesInto(r *field.Element, dst, src [][]field.Element) {
	half := len(src[0]) / 2
	w := 0
	if half < parallelHalf {
		w = 1
	}
	par.ForWidth(w, half, func(lo, hi int) {
		for t, tb := range src {
			out := dst[t]
			for b := lo; b < hi; b++ {
				out[b].Lerp(r, &tb[b], &tb[b+half])
			}
		}
	})
}

// foldRound binds the round challenge and halves every table. Round 0
// folds out of place: tables then still are the caller's, which are read
// but never written, and each is replaced by a fresh table of half the
// length that the later rounds fold in place. This is what lets the
// product provers run on the caller's tables without cloning them — the
// only copy ever made is already half the size.
func foldRound(r *field.Element, round int, tables [][]field.Element) {
	half := len(tables[0]) / 2
	src := tables
	if round == 0 {
		src = append([][]field.Element(nil), tables...)
		arena := make([]field.Element, len(tables)*half)
		for t := range tables {
			tables[t] = arena[t*half : (t+1)*half]
		}
	}
	foldTablesInto(r, tables, src)
	for t := range tables {
		tables[t] = tables[t][:half]
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
// never stores them.
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

// sourceBlock is how many entries of each table a first-round chunk
// fetches from its Source at a time.
const sourceBlock = 512

// sourceBlocks walks [lo, hi) of the first round's half range in blocks,
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

// sourceSums is reduceSums for the first round: body receives aligned
// blocks of the low and high halves of the k source tables.
func sourceSums(s *par.Scratch, src Source, k, half, arity int, out []field.Element, body func(low, high [][]field.Element, acc []field.Element)) {
	reduceSums(s, half, arity, out, func(lo, hi int, acc []field.Element) {
		sourceBlocks(src, k, half, lo, hi, func(_ int, low, high [][]field.Element) {
			body(low, high, acc)
		})
	})
}

// tableSums is reduceSums for a later round over materialized tables,
// handing body the chunk's slices of every table's two halves.
func tableSums(s *par.Scratch, tables [][]field.Element, arity int, out []field.Element, body func(low, high [][]field.Element, acc []field.Element)) {
	half := len(tables[0]) / 2
	reduceSums(s, half, arity, out, func(lo, hi int, acc []field.Element) {
		low, high := make([][]field.Element, len(tables)), make([][]field.Element, len(tables))
		for t, tb := range tables {
			low[t], high[t] = tb[lo:hi], tb[half+lo:half+hi]
		}
		body(low, high, acc)
	})
}

// bind returns the Source of src's k tables (2·half entries each) with
// their top variable fixed to r: entry b is lerp(r, src(b), src(b+half)).
func bind(src Source, k, half int, r field.Element) Source {
	return func(lo int, dst [][]field.Element) {
		s := par.GetScratch()
		defer par.PutScratch(s)
		low, high := make([][]field.Element, k), make([][]field.Element, k)
		for t := range low {
			low[t], high[t] = s.Elements(t, len(dst[t])), s.Elements(k+t, len(dst[t]))
		}
		src(lo, low)
		src(lo+half, high)
		for t, out := range dst {
			for i := range out {
				out[i].Lerp(&r, &low[t][i], &high[t][i])
			}
		}
	}
}

// foldSource binds a source round's challenge: it returns k fresh tables
// of length half with table t's entry b = lerp(r, src_t(b), src_t(b+half)),
// the tables every later round folds in place.
func foldSource(r *field.Element, src Source, k, half int) [][]field.Element {
	arena := make([]field.Element, k*half)
	tables := make([][]field.Element, k)
	for t := range tables {
		tables[t] = arena[t*half : (t+1)*half : (t+1)*half]
	}
	w := 0
	if half < parallelHalf {
		w = 1
	}
	par.ForWidth(w, half, func(lo, hi int) {
		sourceBlocks(src, k, half, lo, hi, func(off int, low, high [][]field.Element) {
			for t, out := range tables {
				out = out[off:]
				for i := range low[t] {
					out[i].Lerp(r, &low[t][i], &high[t][i])
				}
			}
		})
	})
	return tables
}

// proveFrom runs an n-round sum-check for Σ_b Π_t table_t(b) over the k
// tables of src. terms adds one chunk's contribution to the round
// polynomial's values at the arity points 0, 1, …; the transcript labels
// start with domain. It returns the round messages, the challenge point
// (x_1..x_n order), the claimed sum — the first round's value at 0 plus
// its value at 1, so no pass of its own — and the tables' final values.
//
// The first sourceRounds rounds read src, bound to each challenge in
// turn; the fold after the last of them stores the tables, which later
// rounds fold in place.
func proveFrom(domain string, n, k, arity int, src Source, terms func(low, high [][]field.Element, acc []field.Element), tr *transcript.Transcript) (msgs [][]field.Element, point []field.Element, claim field.Element, finals []field.Element) {
	if n == 0 {
		finals = make([]field.Element, k)
		v := make([][]field.Element, k)
		for t := range v {
			v[t] = finals[t : t+1]
		}
		src(0, v)
		claim.SetOne()
		for t := range finals {
			claim.Mul(&claim, &finals[t])
		}
		tr.AppendUint64(domain+"/n", 0)
		tr.AppendElement(domain+"/claim", &claim)
		return nil, []field.Element{}, claim, finals
	}
	all := make([]field.Element, n*arity)
	challenges := make([]field.Element, n)
	var tables [][]field.Element
	s := par.GetScratch()
	defer par.PutScratch(s)
	for i := 0; i < n; i++ {
		msg := all[i*arity : (i+1)*arity]
		msgs = append(msgs, msg)
		half := 1 << (n - 1 - i)
		if tables == nil {
			sourceSums(s, src, k, half, arity, msg, terms)
		} else {
			tableSums(s, tables, arity, msg, terms)
		}
		if i == 0 {
			claim.Add(&msg[0], &msg[1])
			tr.AppendUint64(domain+"/n", uint64(n))
			tr.AppendElement(domain+"/claim", &claim)
		}
		tr.AppendElements(domain+"/round", msg)
		r := tr.ChallengeElement(domain + "/r")
		challenges[i] = r
		switch {
		case tables != nil:
			foldRound(&r, i, tables)
		case i+1 < sourceRounds && i+1 < n:
			src = bind(src, k, half, r)
		default:
			tables = foldSource(&r, src, k, half)
		}
	}
	finals = make([]field.Element, k)
	for t := range finals {
		finals[t] = tables[t][0]
	}
	return msgs, reversed(challenges), claim, finals
}
