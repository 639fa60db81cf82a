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

// scratches is the shared free list of arenas. A FreeList, not a
// sync.Pool: a pool drops arenas at every collection and strands them on
// the P that last returned one, and each arena dropped is its buffers
// grown again by the next kernel call.
var scratches FreeList[Scratch]

// GetScratch borrows a scratch arena from the shared free list.
func GetScratch() *Scratch { return scratches.Get() }

// PutScratch returns a scratch arena to the free list. The caller must
// not retain any buffer obtained from it.
func PutScratch(s *Scratch) { scratches.Put(s) }

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

// FreeList keeps the buffers a kernel needs for the length of one call
// and hands them to the next call, so a steady-state kernel allocates
// none. Unlike a sync.Pool it drops nothing at a garbage collection, nor
// strands a buffer on the P that returned it, so a large buffer is reused
// for certain while work runs; it holds at most as many buffers as were
// ever in use at once, until ReleaseIdle empties it. The zero value is an
// empty list.
type FreeList[T any] struct {
	mu     sync.Mutex
	free   []*T
	listed bool // in freeLists, for ReleaseIdle
}

// Get returns a buffer given back by Put, or a new zero one.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free = l.free[:n-1]
	return x
}

// Put gives x back for a later Get; the caller must not use x afterwards.
func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	if !l.listed {
		l.listed = true
		freeListsMu.Lock()
		freeLists = append(freeLists, l)
		freeListsMu.Unlock()
	}
	l.mu.Unlock()
}

func (l *FreeList[T]) release() {
	l.mu.Lock()
	clear(l.free)
	l.free = l.free[:0]
	l.mu.Unlock()
}

var (
	freeListsMu sync.Mutex
	freeLists   []interface{ release() }
)

// ReleaseIdle empties every FreeList. A prover calls it when its run has
// handed out its last result, so an idle process holds none of the
// buffers — which would otherwise stay live next to whatever the caller
// keeps, and double in the heap Go grows before it next collects — and
// the next run grows them again in its first proofs.
func ReleaseIdle() {
	freeListsMu.Lock()
	defer freeListsMu.Unlock()
	for _, l := range freeLists {
		l.release()
	}
}
