package par

import (
	"sync"

	"batchzk/internal/field"
	"batchzk/internal/sha2"
)

// Scratch is a per-worker arena of reusable kernel buffers: slot-indexed
// []field.Element buffers, a []sha2.Digest buffer, a []byte buffer, and an
// incremental SHA-256 hasher. Buffers grow monotonically and are never shrunk, so a
// steady-state kernel loop performs zero heap allocations.
//
// A Scratch is not safe for concurrent use; borrow one per goroutine via
// GetScratch/PutScratch (or let ForScratch do it per chunk).
type Scratch struct {
	elems   [][]field.Element
	digests []sha2.Digest
	bytes   []byte
	h       sha2.Hasher
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch borrows a scratch arena from the shared pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a scratch arena to the pool. The caller must not
// retain any buffer obtained from it.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// Elements returns a length-n element buffer in the given slot, reusing
// the slot's capacity. Contents are unspecified — use ZeroElements for a
// cleared accumulator. Distinct slots are distinct buffers, so a kernel
// needing several live buffers at once uses one slot per buffer.
func (s *Scratch) Elements(slot, n int) []field.Element {
	for len(s.elems) <= slot {
		s.elems = append(s.elems, nil)
	}
	if cap(s.elems[slot]) < n {
		s.elems[slot] = make([]field.Element, n)
	}
	return s.elems[slot][:n]
}

// ZeroElements is Elements with the returned buffer cleared.
func (s *Scratch) ZeroElements(slot, n int) []field.Element {
	out := s.Elements(slot, n)
	for i := range out {
		out[i] = field.Element{}
	}
	return out
}

// Digests returns a length-n digest buffer, reusing capacity. Contents
// are unspecified.
func (s *Scratch) Digests(n int) []sha2.Digest {
	if cap(s.digests) < n {
		s.digests = make([]sha2.Digest, n)
	}
	return s.digests[:n]
}

// Bytes returns a length-n byte buffer, reusing capacity. Contents are
// unspecified. Hashing kernels serialize elements into it so the hasher
// sees whole buffers instead of one Write per element.
func (s *Scratch) Bytes(n int) []byte {
	if cap(s.bytes) < n {
		s.bytes = make([]byte, n)
	}
	return s.bytes[:n]
}

// Hasher returns the arena's SHA-256 hasher, reset to the initial state.
// Reusing it across items avoids allocating a digest per item.
func (s *Scratch) Hasher() *sha2.Hasher {
	s.h.Reset()
	return &s.h
}

// BatchInverse is field.BatchInverseWithScratch with the prefix buffer
// drawn from the arena (slot 7, reserved), so hot loops invert vectors
// without allocating.
func (s *Scratch) BatchInverse(dst, v []field.Element) {
	field.BatchInverseWithScratch(dst, v, s.Elements(7, len(v)))
}
