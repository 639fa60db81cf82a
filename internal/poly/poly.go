// Package poly provides the polynomial machinery used by BatchZK's
// sum-check and polynomial-commitment modules: multilinear polynomials
// represented by their evaluation table over the Boolean hypercube,
// univariate dense polynomials, and Lagrange interpolation (used by the
// system in §4 of the paper to encode intermediate proving results).
package poly

import (
	"fmt"
	"math/bits"

	"batchzk/internal/field"
)

// Multilinear is a multilinear polynomial p(x_1, …, x_n) represented by its
// 2^n evaluations over the Boolean hypercube. Entry b holds
// p(b_1, …, b_n) where b = Σ b_i·2^{i-1} — the index convention of
// Algorithm 1 in the paper (x_1 is the lowest-order bit).
type Multilinear struct {
	evals []field.Element
	n     int // number of variables
}

// NewMultilinear wraps an evaluation table whose length must be a power of
// two. The table is used directly (not copied).
func NewMultilinear(evals []field.Element) (*Multilinear, error) {
	n := len(evals)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("poly: table length %d is not a positive power of two", n)
	}
	return &Multilinear{evals: evals, n: bits.TrailingZeros(uint(n))}, nil
}

// RandMultilinear returns a random multilinear polynomial in n variables.
func RandMultilinear(n int) *Multilinear {
	m, err := NewMultilinear(field.RandVector(1 << n))
	if err != nil {
		panic(err)
	}
	return m
}

// NumVars returns the number n of variables.
func (m *Multilinear) NumVars() int { return m.n }

// Evals exposes the backing evaluation table.
func (m *Multilinear) Evals() []field.Element { return m.evals }

// Clone returns a deep copy.
func (m *Multilinear) Clone() *Multilinear {
	c := make([]field.Element, len(m.evals))
	copy(c, m.evals)
	return &Multilinear{evals: c, n: m.n}
}

// HypercubeSum returns Σ_{b ∈ {0,1}^n} p(b) — the value H that the
// sum-check protocol proves.
func (m *Multilinear) HypercubeSum() field.Element {
	return field.VectorSum(m.evals)
}

// Evaluate computes p(point) for an arbitrary field point, folding the
// table variable by variable in O(2^n) field operations.
func (m *Multilinear) Evaluate(point []field.Element) (field.Element, error) {
	if len(point) != m.n {
		return field.Element{}, fmt.Errorf("poly: point has %d coordinates, want %d", len(point), m.n)
	}
	cur := make([]field.Element, len(m.evals))
	copy(cur, m.evals)
	for i := 0; i < m.n; i++ {
		half := len(cur) / 2
		r := point[i]
		// Variable x_{i+1} is the low-order bit: pairs are (2b, 2b+1)?
		// With b = Σ b_i 2^{i-1}, x_1 toggles adjacent entries, so fold
		// adjacent pairs: p|x1=r [b] = lerp(r, cur[2b], cur[2b+1]).
		for b := 0; b < half; b++ {
			cur[b].Lerp(&r, &cur[2*b], &cur[2*b+1])
		}
		cur = cur[:half]
	}
	return cur[0], nil
}

// FixLastVariable returns the table of p with x_n fixed to r — exactly the
// update on line 6 of Algorithm 1 ("A[b] = (1-r)·A[b] + r·A[b+2^{n-i}]"),
// which halves the table. The receiver is unchanged.
func (m *Multilinear) FixLastVariable(r field.Element) *Multilinear {
	half := len(m.evals) / 2
	out := make([]field.Element, half)
	for b := 0; b < half; b++ {
		out[b].Lerp(&r, &m.evals[b], &m.evals[b+half])
	}
	return &Multilinear{evals: out, n: m.n - 1}
}

// EqTable returns the table eq(b, point) for all b ∈ {0,1}^n — the
// multilinear extension of equality, used to turn arbitrary-evaluation
// claims into hypercube sums: p(z) = Σ_b eq(b,z)·p(b).
//
// The table is filled in place in one allocation. Each pass prepends one
// variable as the new low bit, splitting entry b into 2b and 2b+1; going
// from the top entry down, both targets are at or above b, so nothing is
// overwritten before it is read. Each split costs one Mul and one Sub:
// v·z and v − v·z, which is v·(1−z) exactly.
func EqTable(point []field.Element) []field.Element {
	return EqTableInto(make([]field.Element, 1<<len(point)), point)
}

// EqTableInto is EqTable written over out[:2^len(point)] (within out's
// capacity), whatever it held, for callers that rebuild eq tables in one
// buffer. It returns that slice.
func EqTableInto(out, point []field.Element) []field.Element {
	out = out[:1<<len(point)]
	out[0] = field.One()
	size := 1
	for i := len(point) - 1; i >= 0; i-- {
		z := &point[i]
		for b := size - 1; b >= 0; b-- {
			v := out[b]
			out[2*b+1].Mul(&v, z)         // b_i = 1 contributes z_i
			out[2*b].Sub(&v, &out[2*b+1]) // b_i = 0 contributes (1 - z_i)
		}
		size *= 2
	}
	return out
}

// EqEval returns eq(z, y) = Π_i (z_i·y_i + (1−z_i)(1−y_i)) in O(n) —
// the closed form verifiers use to evaluate the equality polynomial at a
// sum-check challenge point without materializing a table.
func EqEval(z, y []field.Element) (field.Element, error) {
	if len(z) != len(y) {
		return field.Element{}, fmt.Errorf("poly: eq arity mismatch %d vs %d", len(z), len(y))
	}
	out := field.One()
	oneEl := field.One()
	var zy, omz, omy, term field.Element
	for i := range z {
		zy.Mul(&z[i], &y[i])
		omz.Sub(&oneEl, &z[i])
		omy.Sub(&oneEl, &y[i])
		term.Mul(&omz, &omy)
		term.Add(&term, &zy)
		out.Mul(&out, &term)
	}
	return out, nil
}

// Dense is a univariate polynomial Σ c_i·x^i stored by coefficients,
// low-degree first.
type Dense struct {
	Coeffs []field.Element
}

// NewDense builds a polynomial from coefficients (low-degree first);
// trailing zero coefficients are trimmed.
func NewDense(coeffs []field.Element) *Dense {
	d := &Dense{Coeffs: append([]field.Element(nil), coeffs...)}
	d.trim()
	return d
}

func (d *Dense) trim() {
	n := len(d.Coeffs)
	for n > 0 && d.Coeffs[n-1].IsZero() {
		n--
	}
	d.Coeffs = d.Coeffs[:n]
}

// Degree returns the degree; the zero polynomial has degree -1.
func (d *Dense) Degree() int { return len(d.Coeffs) - 1 }

// Eval evaluates the polynomial at x by Horner's rule.
func (d *Dense) Eval(x *field.Element) field.Element {
	var acc field.Element
	for i := len(d.Coeffs) - 1; i >= 0; i-- {
		acc.Mul(&acc, x)
		acc.Add(&acc, &d.Coeffs[i])
	}
	return acc
}

// Add returns d + e.
func (d *Dense) Add(e *Dense) *Dense {
	n := max(len(d.Coeffs), len(e.Coeffs))
	out := make([]field.Element, n)
	for i := range out {
		var a, b field.Element
		if i < len(d.Coeffs) {
			a = d.Coeffs[i]
		}
		if i < len(e.Coeffs) {
			b = e.Coeffs[i]
		}
		out[i].Add(&a, &b)
	}
	return NewDense(out)
}

// Mul returns d·e by schoolbook multiplication.
func (d *Dense) Mul(e *Dense) *Dense {
	if len(d.Coeffs) == 0 || len(e.Coeffs) == 0 {
		return &Dense{}
	}
	out := make([]field.Element, len(d.Coeffs)+len(e.Coeffs)-1)
	var t field.Element
	for i := range d.Coeffs {
		for j := range e.Coeffs {
			t.Mul(&d.Coeffs[i], &e.Coeffs[j])
			out[i+j].Add(&out[i+j], &t)
		}
	}
	return NewDense(out)
}

// Scale returns s·d.
func (d *Dense) Scale(s *field.Element) *Dense {
	out := make([]field.Element, len(d.Coeffs))
	for i := range out {
		out[i].Mul(&d.Coeffs[i], s)
	}
	return NewDense(out)
}

// Interpolate returns the unique polynomial of degree < len(xs) through the
// points (xs[i], ys[i]) via Lagrange interpolation. The xs must be
// pairwise distinct.
func Interpolate(xs, ys []field.Element) (*Dense, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("poly: %d abscissae vs %d ordinates", len(xs), len(ys))
	}
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if xs[i].Equal(&xs[j]) {
				return nil, fmt.Errorf("poly: duplicate abscissa at %d and %d", i, j)
			}
		}
	}
	acc := &Dense{}
	for i := range xs {
		// basis_i(x) = Π_{j≠i} (x - xs[j]) / (xs[i] - xs[j])
		basis := NewDense([]field.Element{field.One()})
		denom := field.One()
		for j := range xs {
			if j == i {
				continue
			}
			var negXj field.Element
			negXj.Neg(&xs[j])
			basis = basis.Mul(NewDense([]field.Element{negXj, field.One()}))
			var diff field.Element
			diff.Sub(&xs[i], &xs[j])
			denom.Mul(&denom, &diff)
		}
		var coeff field.Element
		coeff.Inverse(&denom)
		coeff.Mul(&coeff, &ys[i])
		acc = acc.Add(basis.Scale(&coeff))
	}
	return acc, nil
}

// InterpolateEvalAt evaluates the degree-(k-1) interpolant through points
// (0, ys[0]), (1, ys[1]), …, (k-1, ys[k-1]) at x, without materializing
// coefficients — the form sum-check verifiers use on round polynomials
// transmitted as evaluations at small integers. It does no field
// inversion and allocates nothing for k up to lagrangeTabled: the
// denominators' inverses come from lagrangeInv, and the prefix products
// live on the stack.
func InterpolateEvalAt(ys []field.Element, x *field.Element) field.Element {
	k := len(ys)
	if k == 0 {
		return field.Element{}
	}
	var stack [lagrangeTabled]field.Element
	var inv, prefix []field.Element // prefix[i] = Π_{j<i} (x − j)
	if k <= lagrangeTabled {
		inv, prefix = lagrangeInv[k], stack[:k]
	} else {
		inv, prefix = lagrangeInverses(k, invFactorials(k)), make([]field.Element, k)
	}
	one := field.One()
	acc, d := one, *x // d = x − i
	for i := range k {
		if d.IsZero() {
			return ys[i] // x is node i
		}
		prefix[i] = acc
		acc.Mul(&acc, &d)
		d.Sub(&d, &one)
	}
	// Back down the nodes with the suffix product Π_{j>i} (x − j):
	// term i is ys[i]·prefix[i]·suffix/Π_{j≠i} (i − j).
	var out, term field.Element
	suffix := one
	for i := k - 1; i >= 0; i-- {
		d.Add(&d, &one)
		term.Mul(&prefix[i], &suffix)
		term.Mul(&term, &inv[i])
		term.Mul(&term, &ys[i])
		out.Add(&out, &term)
		suffix.Mul(&suffix, &d)
	}
	return out
}

// lagrangeTabled bounds the node counts InterpolateEvalAt serves from
// tables: sum-check rounds send 2 to 4 values, and past the table it
// still works, with one inversion and one allocation per call.
const lagrangeTabled = 16

// lagrangeInv[k][i] is 1/Π_{j≠i} (i − j) over the nodes 0..k-1, for k up
// to lagrangeTabled. The denominators depend on k alone, so the table is
// built once, from one inversion.
var lagrangeInv = func() [][]field.Element {
	invFact := invFactorials(lagrangeTabled)
	t := make([][]field.Element, lagrangeTabled+1)
	for k := 1; k <= lagrangeTabled; k++ {
		t[k] = lagrangeInverses(k, invFact)
	}
	return t
}()

// invFactorials returns 1/0!, 1/1!, …, 1/(n-1)! from one inversion.
func invFactorials(n int) []field.Element {
	inv := make([]field.Element, n)
	fact := field.One()
	for i := 2; i < n; i++ {
		f := field.NewElement(uint64(i))
		fact.Mul(&fact, &f)
	}
	inv[n-1].Inverse(&fact)
	for i := n - 1; i > 0; i-- {
		f := field.NewElement(uint64(i))
		inv[i-1].Mul(&inv[i], &f)
	}
	return inv
}

// lagrangeInverses returns the inverted denominators of the k nodes
// 0..k-1: Π_{j≠i} (i − j) = i!·(k-1-i)!·(−1)^(k-1-i), so its inverse is
// a product of two inverse factorials (invFact holds at least k).
func lagrangeInverses(k int, invFact []field.Element) []field.Element {
	inv := make([]field.Element, k)
	for i := range inv {
		inv[i].Mul(&invFact[i], &invFact[k-1-i])
		if (k-1-i)%2 == 1 {
			inv[i].Neg(&inv[i])
		}
	}
	return inv
}
