// Package sha2 is the SHA-256 layer of BatchZK's Merkle and Fiat–Shamir
// workload, backed by the standard library's crypto/sha256 so that hashing
// runs on the CPU's SHA extensions where the host has them.
//
// The paper's Merkle module converts 512-bit blocks into 256-bit digests
// with the raw SHA-256 compression function, keeping the sixteen 32-bit
// message chunks in GPU registers (§3.1). This package exposes exactly that
// primitive — Compress, a single-block 512→256-bit compression with the
// standard IV and no padding — alongside the padded hash (Sum256, Hasher).
// crypto/sha256 does not export its block function, so Compress absorbs
// the block into a pooled digest and reads the chaining value back out of
// the digest's marshalled state. A hand-written round function lives in
// the tests as the differential oracle for all of it.
//
// Merkle interior nodes use Compress2, which packs two 256-bit child
// digests into one 512-bit block; this is one compression call per node,
// matching the cost model used throughout the benchmarks.
package sha2

import (
	"crypto/sha256"
	"encoding"
	"hash"
	"sync"
)

// Size is the digest size in bytes.
const Size = 32

// BlockSize is the compression-function input size in bytes.
const BlockSize = 64

// Digest is a 256-bit hash value.
type Digest [Size]byte

// The marshalled state of a crypto/sha256 digest is a 4-byte magic, the
// eight chaining words big-endian, the 64-byte partial block and the
// 8-byte length: the chaining value sits at [4, 4+Size).
const (
	stateOffset    = 4
	marshalledSize = stateOffset + Size + BlockSize + 8
)

// binaryAppender is encoding.BinaryAppender, which go.mod's language
// version predates; toolchains without it marshal into a fresh slice.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// compressor is one pooled digest plus the buffers a raw compression
// passes through it. The buffers live here, not on the caller's stack,
// because arguments to hash.Hash's interface methods escape.
type compressor struct {
	h     hash.Hash
	block [BlockSize]byte
	state [marshalledSize]byte
}

var compressors = sync.Pool{New: func() any { return &compressor{h: sha256.New()} }}

// compress runs the compression function over c.block. A digest that has
// absorbed exactly one block holds compress(IV, block) as its chaining
// value and nothing buffered, so the marshalled state carries the result.
func (c *compressor) compress() (d Digest) {
	c.h.Reset()
	c.h.Write(c.block[:])
	var state []byte
	var err error
	if a, ok := c.h.(binaryAppender); ok {
		state, err = a.AppendBinary(c.state[:0])
	} else {
		state, err = c.h.(encoding.BinaryMarshaler).MarshalBinary()
	}
	if err != nil || len(state) != marshalledSize {
		panic("sha2: crypto/sha256 state is not marshallable")
	}
	copy(d[:], state[stateOffset:])
	return d
}

// Compress applies the raw SHA-256 compression function (with the standard
// IV, no length padding) to one 512-bit block. This is the Merkle-leaf
// primitive from the paper: a fixed 512-bit block in, a 256-bit digest out.
func Compress(block *[BlockSize]byte) Digest {
	c := compressors.Get().(*compressor)
	c.block = *block
	d := c.compress()
	compressors.Put(c)
	return d
}

// Compress2 hashes two child digests into a parent digest with a single
// compression call (left ‖ right as the 512-bit block).
func Compress2(left, right *Digest) Digest {
	c := compressors.Get().(*compressor)
	copy(c.block[:Size], left[:])
	copy(c.block[Size:], right[:])
	d := c.compress()
	compressors.Put(c)
	return d
}

// Sum256 computes the full (padded, length-strengthened) SHA-256 digest of
// data.
func Sum256(data []byte) Digest {
	return sha256.Sum256(data)
}

// Hasher is an incremental SHA-256 writer (unpadded Compress semantics are
// available through Compress/Compress2). The zero value is an empty hash,
// ready to use. A Hasher must not be copied after first use.
type Hasher struct {
	h   hash.Hash
	sum Digest // Sum's output buffer: a stack one would escape through hash.Hash
}

// state returns the underlying digest, created on first use.
func (s *Hasher) state() hash.Hash {
	if s.h == nil {
		s.h = sha256.New()
	}
	return s.h
}

// Reset restores the initial state.
func (s *Hasher) Reset() {
	if s.h != nil {
		s.h.Reset()
	}
}

// Write absorbs p; it never fails. Each call crosses into crypto/sha256
// once, so hot loops hand it whole buffers, not single elements.
func (s *Hasher) Write(p []byte) (int, error) {
	return s.state().Write(p)
}

// Sum finalizes a copy of the state and returns the digest; the Hasher can
// continue to absorb afterwards.
func (s *Hasher) Sum() Digest {
	s.state().Sum(s.sum[:0])
	return s.sum
}
