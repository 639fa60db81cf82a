package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"batchzk/internal/field"
	"batchzk/internal/pcs"
	"batchzk/internal/sha2"
	"batchzk/internal/sumcheck"
)

// Binary proof encoding. The format is versioned and length-prefixed:
//
//	magic "BZK2" | commitment | outputs | o_tau | hadamard rounds |
//	l_rho | r_rho | linear rounds | w_sigma | test row | eval row |
//	columns (index, NumRows values each) | siblings
//
// All integers are little-endian uint32 (lengths) and field elements are
// 32-byte canonical big-endian. The dominant contribution is the opened
// columns of the polynomial commitment — the proofs of this protocol
// family "reach several MB" (paper §2.1), which TestProofSize verifies.
// The columns are the distinct challenged ones in increasing order; one
// list of Merkle siblings, shared across their paths, authenticates them
// all (pcs.Opening).
//
// The magic names the format. A change to the bytes bumps it, and the
// decoder reads only the current one: "BZK1" (one Merkle path per
// challenged column) is refused with a request to re-prove.

var (
	proofMagic  = [4]byte{'B', 'Z', 'K', '2'}
	retiredBZK1 = [4]byte{'B', 'Z', 'K', '1'}
)

// maxColumns bounds the opened columns of a decoded proof: Setup's
// layouts open pcs.DefaultNumOpenings challenged columns, and a proof
// carries each distinct one once. A decoded proof also carries at most
// TreeDepth siblings per column.
const maxColumns = pcs.DefaultNumOpenings

// maxLen bounds every length field; maxPrealloc caps how many entries
// the decoder allocates for a length before reading them. Slices grow as
// entries actually arrive, so a short stream claiming a huge length
// fails at its end instead of allocating for the claim.
const (
	maxLen      = 1 << 28
	maxPrealloc = 1 << 10
)

// grow returns an empty slice with room for min(n, maxPrealloc) entries.
func grow[T any](n int) []T { return make([]T, 0, min(n, maxPrealloc)) }

// encoder appends the wire form to b; the first error stops it.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) u32(v int) {
	if e.err != nil {
		return
	}
	if v < 0 || v > maxLen {
		e.err = fmt.Errorf("protocol: length %d out of range", v)
		return
	}
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(v))
}

func (e *encoder) elem(x *field.Element) {
	b := x.ToBytes()
	e.b = append(e.b, b[:]...)
}

func (e *encoder) elems(xs []field.Element) { e.padded(xs, len(xs)) }

// padded writes xs as a list of max(n, len(xs)) entries, the missing ones
// zero: an opened column held without its zero tail (pcs.OpenedColumn).
func (e *encoder) padded(xs []field.Element, n int) {
	e.u32(max(n, len(xs)))
	for i := range xs {
		e.elem(&xs[i])
	}
	for range n - len(xs) {
		e.b = append(e.b, zeroElem[:]...)
	}
}

var zeroElem [field.Bytes]byte

func (e *encoder) digest(d sha2.Digest) { e.b = append(e.b, d[:]...) }

type decoder struct {
	r   io.Reader
	err error
}

func (d *decoder) u32() int {
	if d.err != nil {
		return 0
	}
	var b [4]byte
	if _, err := io.ReadFull(d.r, b[:]); err != nil {
		d.err = fmt.Errorf("protocol: truncated proof: %w", err)
		return 0
	}
	v := binary.LittleEndian.Uint32(b[:])
	if v > maxLen {
		d.err = fmt.Errorf("protocol: length %d out of range", v)
		return 0
	}
	return int(v)
}

func (d *decoder) elem(x *field.Element) {
	if d.err != nil {
		return
	}
	var b [field.Bytes]byte
	if _, err := io.ReadFull(d.r, b[:]); err != nil {
		d.err = fmt.Errorf("protocol: truncated proof: %w", err)
		return
	}
	if err := x.SetBytes(b); err != nil {
		d.err = err
	}
}

func (d *decoder) elems() []field.Element {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	out := grow[field.Element](n)
	for i := 0; i < n && d.err == nil; i++ {
		var x field.Element
		d.elem(&x)
		out = append(out, x)
	}
	return out
}

func (d *decoder) digest() sha2.Digest {
	var out sha2.Digest
	if d.err != nil {
		return out
	}
	if _, err := io.ReadFull(d.r, out[:]); err != nil {
		d.err = fmt.Errorf("protocol: truncated proof: %w", err)
	}
	return out
}

// WriteTo serializes the proof.
func (p *Proof) WriteTo(w io.Writer) (int64, error) {
	b, err := p.MarshalBinary()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// appendTo appends the proof's wire form to b.
func (p *Proof) appendTo(b []byte) ([]byte, error) {
	if p.Hadamard == nil || p.Linear == nil || p.PCSProof == nil {
		return nil, fmt.Errorf("protocol: cannot serialize incomplete proof")
	}
	e := &encoder{b: append(b, proofMagic[:]...)}
	e.digest(p.Commitment.Root)
	e.u32(p.Commitment.NumRows)
	e.u32(p.Commitment.NumCols)
	e.elems(p.Outputs)
	e.elem(&p.OTau)
	e.u32(len(p.Hadamard.Rounds))
	for i := range p.Hadamard.Rounds {
		for j := range p.Hadamard.Rounds[i].At {
			e.elem(&p.Hadamard.Rounds[i].At[j])
		}
	}
	e.elem(&p.LRho)
	e.elem(&p.RRho)
	e.u32(len(p.Linear.Rounds))
	for i := range p.Linear.Rounds {
		rd := &p.Linear.Rounds[i]
		e.elem(&rd.At0)
		e.elem(&rd.At1)
		e.elem(&rd.At2)
	}
	e.elem(&p.WSigma)
	e.elems(p.PCSProof.TestRow)
	e.elems(p.PCSProof.CombinedRow)
	e.u32(len(p.PCSProof.Columns))
	for i := range p.PCSProof.Columns {
		col := &p.PCSProof.Columns[i]
		e.u32(col.Index)
		e.padded(col.Values, p.Commitment.NumRows)
	}
	e.u32(len(p.PCSProof.Siblings))
	for _, s := range p.PCSProof.Siblings {
		e.digest(s)
	}
	return e.b, e.err
}

// ReadFrom deserializes a proof written by WriteTo.
func (p *Proof) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	d := &decoder{r: cr}
	var magic [4]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return cr.n, fmt.Errorf("protocol: truncated proof: %w", err)
	}
	switch magic {
	case proofMagic:
	case retiredBZK1:
		return cr.n, fmt.Errorf("protocol: proof format %q (one Merkle path per column) is no longer read; re-prove to get a %q proof", magic, proofMagic)
	default:
		return cr.n, fmt.Errorf("protocol: bad magic %q", magic)
	}
	p.Commitment = pcs.Commitment{
		Root:    d.digest(),
		NumRows: d.u32(),
		NumCols: d.u32(),
	}
	p.Outputs = d.elems()
	d.elem(&p.OTau)
	nHad := d.u32()
	p.Hadamard = &sumcheck.TripleProof{Rounds: grow[sumcheck.TripleRound](nHad)}
	for i := 0; i < nHad && d.err == nil; i++ {
		var rd sumcheck.TripleRound
		for j := range rd.At {
			d.elem(&rd.At[j])
		}
		p.Hadamard.Rounds = append(p.Hadamard.Rounds, rd)
	}
	d.elem(&p.LRho)
	d.elem(&p.RRho)
	nLin := d.u32()
	p.Linear = &sumcheck.ProductProof{Rounds: grow[sumcheck.ProductRound](nLin)}
	for i := 0; i < nLin && d.err == nil; i++ {
		var rd sumcheck.ProductRound
		d.elem(&rd.At0)
		d.elem(&rd.At1)
		d.elem(&rd.At2)
		p.Linear.Rounds = append(p.Linear.Rounds, rd)
	}
	d.elem(&p.WSigma)
	p.PCSProof = &pcs.EvalProof{
		TestRow:     d.elems(),
		CombinedRow: d.elems(),
	}
	numCols := d.u32()
	if d.err != nil {
		return cr.n, d.err
	}
	if numCols > maxColumns {
		return cr.n, fmt.Errorf("protocol: %d opened columns, at most %d", numCols, maxColumns)
	}
	p.PCSProof.Columns = make([]pcs.OpenedColumn, 0, numCols)
	for i := 0; i < numCols && d.err == nil; i++ {
		p.PCSProof.Columns = append(p.PCSProof.Columns, pcs.OpenedColumn{Index: d.u32(), Values: d.elems()})
	}
	nSib := d.u32()
	if d.err != nil {
		return cr.n, d.err
	}
	if bound := numCols * p.Commitment.TreeDepth(); nSib > bound {
		return cr.n, fmt.Errorf("protocol: %d Merkle siblings for %d columns, at most %d", nSib, numCols, bound)
	}
	p.PCSProof.Siblings = make([]sha2.Digest, nSib)
	for s := 0; s < nSib && d.err == nil; s++ {
		p.PCSProof.Siblings[s] = d.digest()
	}
	if d.err != nil {
		return cr.n, d.err
	}
	// A column on the wire has exactly one entry per committed row; in
	// memory it drops its zero tail, as the prover's does.
	for i := range p.PCSProof.Columns {
		col := &p.PCSProof.Columns[i]
		if len(col.Values) != p.Commitment.NumRows {
			return cr.n, fmt.Errorf("protocol: column %d has %d values, commitment has %d rows", i, len(col.Values), p.Commitment.NumRows)
		}
		col.Values = pcs.TrimZeros(col.Values)
	}
	return cr.n, nil
}

// MarshalBinary serializes the proof to a byte slice, allocated once at
// its final size.
func (p *Proof) MarshalBinary() ([]byte, error) {
	n, err := p.Size()
	if err != nil {
		return nil, err
	}
	return p.appendTo(make([]byte, 0, n))
}

// UnmarshalBinary parses a proof serialized by MarshalBinary, rejecting
// trailing garbage.
func (p *Proof) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	if _, err := p.ReadFrom(r); err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("protocol: %d trailing bytes after proof", r.Len())
	}
	return nil
}

// Size returns the serialized proof size in bytes, without serializing.
func (p *Proof) Size() (int, error) {
	if p.Hadamard == nil || p.Linear == nil || p.PCSProof == nil {
		return 0, fmt.Errorf("protocol: cannot serialize incomplete proof")
	}
	const u32, el = 4, field.Bytes
	n := len(proofMagic) + sha2.Size + 2*u32 +
		u32 + el*len(p.Outputs) + el +
		u32 + 4*el*len(p.Hadamard.Rounds) + 2*el +
		u32 + 3*el*len(p.Linear.Rounds) + el +
		u32 + el*len(p.PCSProof.TestRow) + u32 + el*len(p.PCSProof.CombinedRow) +
		u32 + u32 + sha2.Size*len(p.PCSProof.Siblings)
	for _, col := range p.PCSProof.Columns {
		n += 2*u32 + el*max(len(col.Values), p.Commitment.NumRows)
	}
	return n, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
