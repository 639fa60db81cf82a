package sumcheck

import (
	"batchzk/internal/field"
	"batchzk/internal/par"
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
