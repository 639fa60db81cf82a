// Package encoder implements the Spielman-style linear-time error-
// correcting encoder used by Orion/Brakedown-style ZKP protocols (§2.4 and
// §3.3 of the BatchZK paper).
//
// The encoder is recursive: a stage with input vector x (length n)
// multiplies x by a sparse "first" matrix to get a half-length vector,
// encodes that recursively into w, multiplies w by a sparse "second"
// matrix to get a parity vector v, and outputs (x ‖ w ‖ v). With the
// halving parameter α = 1/2 and parity sized |v| = n, every stage's
// codeword is exactly 4× its message — a rate-1/4 systematic code whose
// sizes stay powers of two (convenient for the Merkle module that hashes
// its columns).
//
// EncodeInto is the pipeline-shaped implementation from Figure 6 of the
// paper: a forward pass of first-matrix multiplications from large to
// small, then a backward pass of second-matrix multiplications from small
// to large. It runs in place in the caller's codeword buffer — every
// level's message and parity land where the codeword keeps them — so
// encoding allocates nothing. The tests pin it against the recursive
// definition above, kept there as an oracle.
//
// Sparse matrices are sampled deterministically from a seed; every output
// row has fewer than 256 non-zero entries (the property §3.3 exploits to
// encode row lengths in a single byte for bucket sorting).
package encoder

import (
	"fmt"
	"math/rand"
	"sync"

	"batchzk/internal/field"
)

// RateInv is the codeword expansion factor: |codeword| = RateInv · |message|.
const RateInv = 4

// MaxRowWeight bounds the non-zeros per output row (must fit in one byte).
const MaxRowWeight = 255

// Entry is one non-zero coefficient of a sparse matrix row. Coefficients
// are sampled as 64-bit integers, so Coeff holds the canonical value
// itself: the element field.NewElement(Coeff), applied as one wide
// multiply-accumulate (field.Wide.MulAccSmall's arithmetic, which the row
// kernel runs inline) instead of a full Montgomery multiply. The row
// kernel's assembly reads Col at offset 0 and Coeff at offset 8.
type Entry struct {
	Col   int
	Coeff uint64
}

// SparseMatrix is a row-major sparse matrix: Rows[j] lists the non-zeros
// contributing to output coordinate j (the paper's "right vertices are
// rows" convention, which maps one GPU thread per output row).
type SparseMatrix struct {
	InDim  int
	OutDim int
	Rows   [][]Entry
}

// MulVecInto computes out[j] = Σ_e e.Coeff · x[e.Col] for every row j
// into a caller-provided output buffer of length OutDim, which it
// overwrites; out must not overlap x. It allocates nothing and runs on
// the calling goroutine: callers parallelize across the rows of the
// committed matrix, so one codeword is one worker's job.
//
// Each output row accumulates its terms wide (field.Wide: four limb
// multiplies per non-zero, at most MaxRowWeight = field.MaxWideTerms of
// them) and is reduced once — the same canonical element as a Mul and a
// reduced Add per term.
func (m *SparseMatrix) MulVecInto(out, x []field.Element) error {
	if len(x) != m.InDim {
		return fmt.Errorf("encoder: input length %d, matrix expects %d", len(x), m.InDim)
	}
	if len(out) != m.OutDim {
		return fmt.Errorf("encoder: output length %d, matrix produces %d", len(out), m.OutDim)
	}
	m.mulInto(out, x)
	return nil
}

func (m *SparseMatrix) mulInto(out, x []field.Element) {
	for j, row := range m.Rows {
		rowInto(&out[j], row, x)
	}
}

// RowLengths returns the per-row non-zero counts (all < 256), the input of
// the bucket-sort warp-balancing scheme in §3.3.
func (m *SparseMatrix) RowLengths() []byte {
	out := make([]byte, len(m.Rows))
	for j, row := range m.Rows {
		out[j] = byte(len(row))
	}
	return out
}

// NumNonZeros returns the total non-zero count — one field multiply-add of
// encoding work per non-zero.
func (m *SparseMatrix) NumNonZeros() int {
	total := 0
	for _, row := range m.Rows {
		total += len(row)
	}
	return total
}

// Params configures the expander sampling.
type Params struct {
	// BaseSize is the message size at which recursion stops and the
	// repetition base code takes over. Must be a power of two ≥ 2.
	BaseSize int
	// MinRowWeight/MaxRowWeightFirst bound row weights of the first
	// (halving) matrices; second matrices use slightly denser rows.
	MinRowWeight   int
	MaxRowWeightD1 int
	MaxRowWeightD2 int
	// Seed drives the deterministic graph sampling.
	Seed int64
}

// DefaultParams mirrors the expander densities used by Orion-style codes,
// scaled down so unit tests stay fast while preserving variable row
// lengths (the warp-imbalance phenomenon §3.3 addresses).
func DefaultParams() Params {
	return Params{
		BaseSize:       16,
		MinRowWeight:   6,
		MaxRowWeightD1: 14,
		MaxRowWeightD2: 18,
		Seed:           0x5a1e4d,
	}
}

// Stage holds the two sparse matrices of one recursion level.
type Stage struct {
	// First halves the stage input: InDim n → OutDim n/2.
	First *SparseMatrix
	// Second maps the recursively encoded half (length 2n) to the parity
	// section (length n).
	Second *SparseMatrix
}

// Encoder is a linear-time encoder for messages of a fixed power-of-two
// length. It is safe for concurrent use once constructed.
type Encoder struct {
	n      int
	params Params
	stages []Stage
}

// New samples an encoder for messages of length n (a power of two
// ≥ params.BaseSize).
func New(n int, params Params) (*Encoder, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("encoder: message length %d is not a positive power of two", n)
	}
	if params.BaseSize < 2 || params.BaseSize&(params.BaseSize-1) != 0 {
		return nil, fmt.Errorf("encoder: base size %d is not a power of two ≥ 2", params.BaseSize)
	}
	if n < params.BaseSize {
		return nil, fmt.Errorf("encoder: message length %d below base size %d", n, params.BaseSize)
	}
	if params.MinRowWeight < 1 || params.MaxRowWeightD1 > MaxRowWeight || params.MaxRowWeightD2 > MaxRowWeight ||
		params.MinRowWeight > params.MaxRowWeightD1 || params.MinRowWeight > params.MaxRowWeightD2 {
		return nil, fmt.Errorf("encoder: invalid row-weight bounds [%d, %d/%d]",
			params.MinRowWeight, params.MaxRowWeightD1, params.MaxRowWeightD2)
	}
	e := &Encoder{n: n, params: params}
	rng := rand.New(rand.NewSource(params.Seed))
	for size := n; size > params.BaseSize; size /= 2 {
		first := sampleMatrix(rng, size, size/2, params.MinRowWeight, params.MaxRowWeightD1)
		second := sampleMatrix(rng, RateInv*size/2, size, params.MinRowWeight, params.MaxRowWeightD2)
		e.stages = append(e.stages, Stage{First: first, Second: second})
	}
	return e, nil
}

// cachedEncoders memoizes Cached lookups. New is deterministic in
// (n, params) — the expander graphs are sampled from params.Seed — so a
// repeat construction yields a bit-identical encoder, and sharing one
// instance is safe: an Encoder is read-only after construction.
var cachedEncoders sync.Map // cacheKey → *Encoder

type cacheKey struct {
	n      int
	params Params
}

// Cached returns a shared encoder for (n, params), constructing it on
// first use. Committing, proving, and verifying re-derive the encoder
// from public parameters on every call; the cache turns those repeat
// constructions — sampling ~n log n sparse rows each — into one map load.
// Construction errors are not cached.
func Cached(n int, params Params) (*Encoder, error) {
	key := cacheKey{n: n, params: params}
	if e, ok := cachedEncoders.Load(key); ok {
		return e.(*Encoder), nil
	}
	e, err := New(n, params)
	if err != nil {
		return nil, err
	}
	actual, _ := cachedEncoders.LoadOrStore(key, e)
	return actual.(*Encoder), nil
}

// sampleMatrix draws a sparse matrix whose rows have a uniformly random
// weight in [minW, min(maxW, inDim)] and distinct random columns with
// non-zero coefficients.
func sampleMatrix(rng *rand.Rand, inDim, outDim, minW, maxW int) *SparseMatrix {
	if maxW > inDim {
		maxW = inDim
	}
	if minW > maxW {
		minW = maxW
	}
	m := &SparseMatrix{InDim: inDim, OutDim: outDim, Rows: make([][]Entry, outDim)}
	seen := make(map[int]struct{}, maxW)
	var all []Entry // every row, back to back, so a mat-vec streams one array
	ends := make([]int, outDim)
	for j := 0; j < outDim; j++ {
		w := minW + rng.Intn(maxW-minW+1)
		// Rejection-sample w distinct columns (w ≪ inDim in practice, and
		// w ≤ inDim always, so this terminates quickly).
		clear(seen)
		for k := 0; k < w; {
			c := rng.Intn(inDim)
			if _, dup := seen[c]; dup {
				continue
			}
			seen[c] = struct{}{}
			// Coefficients are below 2⁶⁴ < r, so each is its own canonical
			// value; the low bit keeps them non-zero.
			all = append(all, Entry{Col: c, Coeff: rng.Uint64() | 1})
			k++
		}
		ends[j] = len(all)
	}
	all = all[:len(all):len(all)]
	start := 0
	for j, end := range ends {
		m.Rows[j] = all[start:end:end]
		start = end
	}
	return m
}

// StageWork summarizes the work of one recursion level without
// materializing coefficient matrices — used by the performance model at
// table scales (N up to 2^22), where full sampling would need gigabytes.
// The row-length distributions are drawn from the same generator family
// as New, so warp-imbalance factors are faithful.
type StageWork struct {
	InputLen   int
	FirstNNZ   int
	SecondNNZ  int
	FirstLens  []byte
	SecondLens []byte
}

// WorkModel returns the per-stage work profile of an encoder for messages
// of length n under params, without building the matrices.
func WorkModel(n int, params Params) ([]StageWork, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("encoder: message length %d is not a positive power of two", n)
	}
	if n < params.BaseSize {
		return nil, fmt.Errorf("encoder: message length %d below base size %d", n, params.BaseSize)
	}
	rng := rand.New(rand.NewSource(params.Seed))
	drawLens := func(outDim, minW, maxW, inDim int) ([]byte, int) {
		if maxW > inDim {
			maxW = inDim
		}
		if minW > maxW {
			minW = maxW
		}
		lens := make([]byte, outDim)
		total := 0
		for j := range lens {
			w := minW + rng.Intn(maxW-minW+1)
			lens[j] = byte(w)
			total += w
		}
		return lens, total
	}
	var out []StageWork
	for size := n; size > params.BaseSize; size /= 2 {
		sw := StageWork{InputLen: size}
		sw.FirstLens, sw.FirstNNZ = drawLens(size/2, params.MinRowWeight, params.MaxRowWeightD1, size)
		sw.SecondLens, sw.SecondNNZ = drawLens(size, params.MinRowWeight, params.MaxRowWeightD2, RateInv*size/2)
		out = append(out, sw)
	}
	return out, nil
}

// MessageLen returns the message length the encoder was built for.
func (e *Encoder) MessageLen() int { return e.n }

// CodewordLen returns the codeword length (RateInv · message length).
func (e *Encoder) CodewordLen() int { return RateInv * e.n }

// NumStages returns the recursion depth (excluding the base code).
func (e *Encoder) NumStages() int { return len(e.stages) }

// Stages exposes the sampled stage matrices (read-only use).
func (e *Encoder) Stages() []Stage { return e.stages }

// Encode returns the codeword of x in a fresh buffer (see EncodeInto).
func (e *Encoder) Encode(x []field.Element) ([]field.Element, error) {
	if len(x) != e.n {
		return nil, fmt.Errorf("encoder: message length %d, want %d", len(x), e.n)
	}
	cw := make([]field.Element, e.CodewordLen())
	e.encode(cw, x, nil)
	return cw, nil
}

// EncodeInto writes the codeword x ‖ enc(First·x) ‖ Second·enc(First·x)
// of x into dst (length CodewordLen) without any intermediate buffer.
// Level k's codeword occupies a window of dst starting at offset off_k
// with its message in the first quarter; First_k·x_k is written straight
// into the next quarter, which is where level k+1's codeword (message
// first) begins. A forward sweep therefore leaves every level's message
// in place, the base code repeats the smallest one, and a backward sweep
// fills each level's parity quarter from the half before it.
//
// x may be dst[:MessageLen] itself; otherwise it must not overlap dst.
func (e *Encoder) EncodeInto(dst, x []field.Element) error {
	if err := e.checkLens(dst, x); err != nil {
		return err
	}
	e.encode(dst, x, nil)
	return nil
}

func (e *Encoder) checkLens(dst, x []field.Element) error {
	if len(x) != e.n {
		return fmt.Errorf("encoder: message length %d, want %d", len(x), e.n)
	}
	if len(dst) != e.CodewordLen() {
		return fmt.Errorf("encoder: codeword buffer length %d, want %d", len(dst), e.CodewordLen())
	}
	return nil
}

// encode is EncodeInto for checked lengths. With a cone it computes only
// the parity rows the cone lists and stops the forward sweep below the
// cone's deepest level; the rest of dst is left as it was.
func (e *Encoder) encode(dst, x []field.Element, c *Cone) {
	if &dst[0] != &x[0] {
		copy(dst[:e.n], x)
	}
	depth := len(e.stages)
	if c != nil {
		depth = len(c.parity)
	}
	off, n := 0, e.n
	for _, s := range e.stages[:depth] {
		s.First.mulInto(dst[off+n:off+n+n/2], dst[off:off+n])
		off += n
		n /= 2
	}
	if depth == len(e.stages) {
		for i := 1; i < RateInv; i++ {
			copy(dst[off+i*n:off+(i+1)*n], dst[off:off+n])
		}
	}
	for k := depth - 1; k >= 0; k-- {
		n *= 2
		off -= n
		second := e.stages[k].Second
		v, w := dst[off+3*n:off+4*n], dst[off+n:off+3*n]
		if c == nil {
			second.mulInto(v, w)
			continue
		}
		for _, j := range c.parity[k] {
			rowInto(&v[j], second.Rows[j], w)
		}
	}
}

// Cone is the part of the encoding that a fixed set of codeword positions
// depends on. A position in the message quarter is the message itself; a
// parity position at level k needs one row of Second_k and, through it,
// a handful of positions of level k+1's codeword; and so on down. The
// First matrices are computed in full on every level the cone reaches
// (each of their outputs is read by ~5 sampled rows one level down), but
// of the Second matrices — about two thirds of the encoder's non-zeros —
// only the listed rows are. The pcs opening uses it to recompute the
// challenged columns of a codeword without the rest.
type Cone struct {
	e *Encoder
	// parity[k] lists the Second_k rows to compute, ascending; the cone
	// reaches len(parity) levels below the top.
	parity [][]int
}

// Cone returns the dependency cone of the given codeword positions.
func (e *Encoder) Cone(positions []int) (*Cone, error) {
	want := make([]bool, e.CodewordLen()) // positions needed at this level
	for _, j := range positions {
		if j < 0 || j >= len(want) {
			return nil, fmt.Errorf("encoder: codeword position %d out of range [0, %d)", j, len(want))
		}
		want[j] = true
	}
	c := &Cone{e: e}
	n := e.n
	for _, s := range e.stages {
		// Positions past the message quarter live in x_{k+1}'s codeword
		// (the middle half) or are parity rows reading from it.
		next := make([]bool, 2*n)
		copy(next, want[n:3*n])
		var rows []int
		for j, need := range want[3*n:] {
			if need {
				rows = append(rows, j)
				for _, en := range s.Second.Rows[j] {
					next[en.Col] = true
				}
			}
		}
		if !anyTrue(next) {
			break
		}
		c.parity = append(c.parity, rows)
		want, n = next, n/2
	}
	return c, nil
}

func anyTrue(v []bool) bool {
	for _, b := range v {
		if b {
			return true
		}
	}
	return false
}

// EncodeInto writes into dst (length CodewordLen) a buffer that agrees
// with the full codeword of x at every position of the cone; other
// positions are unspecified. Like Encoder.EncodeInto it allocates
// nothing, so one scratch buffer serves every row of a matrix.
func (c *Cone) EncodeInto(dst, x []field.Element) error {
	if err := c.e.checkLens(dst, x); err != nil {
		return err
	}
	c.e.encode(dst, x, c)
	return nil
}

// WorkNonZeros returns the total multiply-add count of one encoding — the
// sum of non-zeros over every stage matrix plus nothing for the
// (copy-only) base code. The performance model consumes this.
func (e *Encoder) WorkNonZeros() int {
	total := 0
	for _, s := range e.stages {
		total += s.First.NumNonZeros() + s.Second.NumNonZeros()
	}
	return total
}
