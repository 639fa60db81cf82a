// Package gkr implements the GKR interactive proof for layered arithmetic
// circuits — the protocol core of the sum-check-based ZKP family the
// paper targets (Libra, Virgo, Virgo++, Orion in Table 1), with the
// linear-time two-phase prover of Libra built on the affine-product
// sum-check.
//
// For a layered circuit with values V_0 (outputs) … V_d (inputs), each
// layer satisfies
//
//	Ṽ_i(z) = Σ_{x,y} mul_i(z,x,y)·Ṽ_{i+1}(x)·Ṽ_{i+1}(y)
//	               + add_i(z,x,y)·(Ṽ_{i+1}(x) + Ṽ_{i+1}(y)).
//
// A claim about layer i is reduced to two claims about layer i+1 by a
// 2s-round sum-check, run as two phases of s rounds each: phase 1 folds x
// with prover tables h(x) = Σ_y mul·Ṽ(y) + add and g(x) = Σ_y add·Ṽ(y)
// (each built in O(#gates)); phase 2 folds y with tables conditioned on
// the bound u. The two resulting claims Ṽ_{i+1}(u), Ṽ_{i+1}(v) are merged
// with random α, β into the next layer's claim. At the input layer the
// claims are settled either directly (public input) or by a polynomial-
// commitment opening (Prover/VerifierCommitted — the Virgo/Orion
// composition, using the pcs package's batched multi-point opening).
package gkr

import (
	"errors"
	"fmt"
	"math/bits"

	"batchzk/internal/field"
	"batchzk/internal/pcs"
	"batchzk/internal/poly"
	"batchzk/internal/sumcheck"
	"batchzk/internal/transcript"
)

// GateOp is a layered-circuit gate type.
type GateOp uint8

// Gate operations.
const (
	Add GateOp = iota
	Mul
)

// Gate is one gate of a layer; In0/In1 index into the next layer's
// (or, for the last layer, the input vector's) values.
type Gate struct {
	Op       GateOp
	In0, In1 int
}

// Circuit is a layered arithmetic circuit: Layers[0] computes the outputs
// and Layers[len-1] reads the inputs. Every layer's gate count and the
// input size must be powers of two (pad with zero-producing gates and
// zero inputs).
type Circuit struct {
	InputSize int
	Layers    [][]Gate
}

// Validate checks the structural invariants.
func (c *Circuit) Validate() error {
	if c.InputSize < 2 || c.InputSize&(c.InputSize-1) != 0 {
		return fmt.Errorf("gkr: input size %d is not a power of two ≥ 2", c.InputSize)
	}
	if len(c.Layers) == 0 {
		return fmt.Errorf("gkr: no layers")
	}
	for i, layer := range c.Layers {
		n := len(layer)
		if n < 2 || n&(n-1) != 0 {
			return fmt.Errorf("gkr: layer %d has %d gates (not a power of two ≥ 2)", i, n)
		}
		width := c.InputSize
		if i+1 < len(c.Layers) {
			width = len(c.Layers[i+1])
		}
		for g, gate := range layer {
			if gate.In0 < 0 || gate.In0 >= width || gate.In1 < 0 || gate.In1 >= width {
				return fmt.Errorf("gkr: layer %d gate %d references out-of-range input", i, g)
			}
		}
	}
	return nil
}

// Depth returns the number of layers.
func (c *Circuit) Depth() int { return len(c.Layers) }

// OutputSize returns the (padded) output count.
func (c *Circuit) OutputSize() int { return len(c.Layers[0]) }

// Evaluate runs the circuit, returning the values of every layer:
// values[0] = outputs … values[depth] = the (padded) input.
func (c *Circuit) Evaluate(input []field.Element) ([][]field.Element, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(input) > c.InputSize {
		return nil, fmt.Errorf("gkr: %d inputs exceed input size %d", len(input), c.InputSize)
	}
	padded := make([]field.Element, c.InputSize)
	copy(padded, input)
	values := make([][]field.Element, c.Depth()+1)
	values[c.Depth()] = padded
	for i := c.Depth() - 1; i >= 0; i-- {
		prev := values[i+1]
		out := make([]field.Element, len(c.Layers[i]))
		for g, gate := range c.Layers[i] {
			switch gate.Op {
			case Add:
				out[g].Add(&prev[gate.In0], &prev[gate.In1])
			case Mul:
				out[g].Mul(&prev[gate.In0], &prev[gate.In1])
			default:
				return nil, fmt.Errorf("gkr: unknown op %d", gate.Op)
			}
		}
		values[i] = out
	}
	return values, nil
}

// LayerProof is the two-phase sum-check transcript of one layer
// reduction plus the two carried claims.
type LayerProof struct {
	Phase1 *sumcheck.ProductProof
	Phase2 *sumcheck.ProductProof
	VU, VV field.Element // claimed Ṽ_{i+1}(u), Ṽ_{i+1}(v)
}

// Proof is a complete GKR proof: the claimed outputs plus one layer proof
// per circuit layer. The input-layer claims are settled by the caller
// (directly for public inputs, via a commitment opening for secret ones).
type Proof struct {
	Outputs []field.Element
	Layers  []LayerProof
}

// Domain is the Fiat–Shamir domain label.
const Domain = "batchzk/gkr"

// Prove generates a GKR proof for the circuit on the given input.
// finalU/finalV/claimU/claimV describe the input-layer obligation the
// verifier must settle: Ṽ_input(finalU) = claimU and likewise for V.
func Prove(c *Circuit, input []field.Element, tr *transcript.Transcript) (*Proof, []field.Element, []field.Element, error) {
	values, err := c.Evaluate(input)
	if err != nil {
		return nil, nil, nil, err
	}
	return ProveFromValues(c, values, tr)
}

// ProveFromValues runs the GKR prover over precomputed layer values (as
// returned by Evaluate) — the form the batch pipeline uses, where
// evaluation and proving live in different stages.
func ProveFromValues(c *Circuit, values [][]field.Element, tr *transcript.Transcript) (*Proof, []field.Element, []field.Element, error) {
	proof := &Proof{Outputs: values[0]}
	tr.AppendElements("gkr/outputs", proof.Outputs)
	outBits := log2(len(values[0]))
	r := tr.ChallengeElements("gkr/r", outBits)

	// eWeights[z] is the current layer's claim weight table; initially
	// eq(r, z), later α·eq(u,z) + β·eq(v,z).
	eWeights := poly.EqTable(r)
	outML, err := poly.NewMultilinear(append([]field.Element{}, values[0]...))
	if err != nil {
		return nil, nil, nil, err
	}
	claim, err := outML.Evaluate(r)
	if err != nil {
		return nil, nil, nil, err
	}

	var u, v []field.Element
	for i := 0; i < c.Depth(); i++ {
		layer := c.Layers[i]
		next := values[i+1]
		sNext := log2(len(next))

		// Phase 1 tables over x.
		h := make([]field.Element, len(next))
		g := make([]field.Element, len(next))
		var t field.Element
		for z, gate := range layer {
			switch gate.Op {
			case Mul:
				t.Mul(&eWeights[z], &next[gate.In1])
				h[gate.In0].Add(&h[gate.In0], &t)
			case Add:
				h[gate.In0].Add(&h[gate.In0], &eWeights[z])
				t.Mul(&eWeights[z], &next[gate.In1])
				g[gate.In0].Add(&g[gate.In0], &t)
			}
		}
		// The sum-check reads its tables and never writes them, so both
		// phases run on the layer's values themselves.
		vML, _ := poly.NewMultilinear(next)
		hML, _ := poly.NewMultilinear(h)
		gML, _ := poly.NewMultilinear(g)
		p1, pointU, finals1, err := sumcheck.ProveAffineProduct(hML, vML, gML, claim, tr)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("gkr: layer %d phase 1: %w", i, err)
		}
		u = pointU
		vu := finals1[1]
		tr.AppendElement("gkr/vu", &vu)

		// The running claim after phase 1 = h̃(u)·Ṽ(u) + g̃(u).
		var claim2 field.Element
		claim2.Mul(&finals1[0], &finals1[1])
		claim2.Add(&claim2, &finals1[2])

		// Phase 2 tables over y, conditioned on u.
		eqU := poly.EqTable(u)
		a2 := make([]field.Element, len(next))
		b2 := make([]field.Element, len(next))
		for z, gate := range layer {
			var w field.Element
			w.Mul(&eWeights[z], &eqU[gate.In0])
			switch gate.Op {
			case Mul:
				t.Mul(&w, &vu)
				a2[gate.In1].Add(&a2[gate.In1], &t)
			case Add:
				a2[gate.In1].Add(&a2[gate.In1], &w)
				t.Mul(&w, &vu)
				b2[gate.In1].Add(&b2[gate.In1], &t)
			}
		}
		aML, _ := poly.NewMultilinear(a2)
		bML, _ := poly.NewMultilinear(b2)
		p2, pointV, finals2, err := sumcheck.ProveAffineProduct(aML, vML, bML, claim2, tr)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("gkr: layer %d phase 2: %w", i, err)
		}
		v = pointV
		vv := finals2[1]
		tr.AppendElement("gkr/vv", &vv)

		proof.Layers = append(proof.Layers, LayerProof{Phase1: p1, Phase2: p2, VU: vu, VV: vv})

		// Merge the two claims for the next layer.
		alpha := tr.ChallengeElement("gkr/alpha")
		beta := tr.ChallengeElement("gkr/beta")
		var cu, cv field.Element
		cu.Mul(&alpha, &vu)
		cv.Mul(&beta, &vv)
		claim.Add(&cu, &cv)
		if i+1 < c.Depth() {
			eqV := poly.EqTable(v)
			eWeights = make([]field.Element, 1<<sNext)
			for z := range eWeights {
				var wu, wv field.Element
				wu.Mul(&alpha, &eqU[z])
				wv.Mul(&beta, &eqV[z])
				eWeights[z].Add(&wu, &wv)
			}
		}
	}
	return proof, u, v, nil
}

// ErrReject is returned when a GKR proof fails verification.
var ErrReject = errors.New("gkr: proof rejected")

// Verify checks a GKR proof. It returns the input-layer obligation:
// points u, v and claims Ṽ_input(u), Ṽ_input(v), which the caller settles
// against the public input (VerifyPublic) or a commitment opening.
func Verify(c *Circuit, proof *Proof, tr *transcript.Transcript) (u, v []field.Element, vu, vv field.Element, err error) {
	if err = c.Validate(); err != nil {
		return
	}
	if proof == nil || len(proof.Layers) != c.Depth() || len(proof.Outputs) != c.OutputSize() {
		err = fmt.Errorf("%w: malformed proof", ErrReject)
		return
	}
	tr.AppendElements("gkr/outputs", proof.Outputs)
	outBits := log2(len(proof.Outputs))
	r := tr.ChallengeElements("gkr/r", outBits)
	outML, mlErr := poly.NewMultilinear(append([]field.Element{}, proof.Outputs...))
	if mlErr != nil {
		err = mlErr
		return
	}
	claim, mlErr := outML.Evaluate(r)
	if mlErr != nil {
		err = mlErr
		return
	}

	// Weight evaluator: eTable over the current layer's indices.
	eWeights := poly.EqTable(r)
	for i := 0; i < c.Depth(); i++ {
		lp := &proof.Layers[i]
		if lp.Phase1 == nil || lp.Phase2 == nil {
			err = fmt.Errorf("%w: layer %d missing phases", ErrReject, i)
			return
		}
		// Both phases run over the next layer's indices.
		s := log2(c.InputSize)
		if i+1 < c.Depth() {
			s = log2(len(c.Layers[i+1]))
		}
		var expected1, expected2 field.Element
		u, expected1, err = sumcheck.VerifyAffineProduct(s, claim, lp.Phase1, tr)
		if err != nil {
			err = fmt.Errorf("%w: layer %d phase 1: %v", ErrReject, i, err)
			return
		}
		tr.AppendElement("gkr/vu", &lp.VU)
		v, expected2, err = sumcheck.VerifyAffineProduct(s, expected1, lp.Phase2, tr)
		if err != nil {
			err = fmt.Errorf("%w: layer %d phase 2: %v", ErrReject, i, err)
			return
		}
		tr.AppendElement("gkr/vv", &lp.VV)

		// Final wiring check: expected2 must equal
		// Σ_gates e[z]·eq(u,a)·eq(v,b)·(mul ? VU·VV : VU+VV).
		eqU := poly.EqTable(u)
		eqV := poly.EqTable(v)
		var mulVal, addVal, want, t field.Element
		mulVal.Mul(&lp.VU, &lp.VV)
		addVal.Add(&lp.VU, &lp.VV)
		for z, gate := range c.Layers[i] {
			t.Mul(&eWeights[z], &eqU[gate.In0])
			t.Mul(&t, &eqV[gate.In1])
			if gate.Op == Mul {
				t.Mul(&t, &mulVal)
			} else {
				t.Mul(&t, &addVal)
			}
			want.Add(&want, &t)
		}
		if !want.Equal(&expected2) {
			err = fmt.Errorf("%w: layer %d wiring check", ErrReject, i)
			return
		}

		alpha := tr.ChallengeElement("gkr/alpha")
		beta := tr.ChallengeElement("gkr/beta")
		var cu, cv field.Element
		cu.Mul(&alpha, &lp.VU)
		cv.Mul(&beta, &lp.VV)
		claim.Add(&cu, &cv)
		vu, vv = lp.VU, lp.VV
		if i+1 < c.Depth() {
			width := len(c.Layers[i+1])
			eWeights = make([]field.Element, width)
			eqVt := poly.EqTable(v)
			for z := 0; z < width; z++ {
				var wu, wv field.Element
				wu.Mul(&alpha, &eqU[z])
				wv.Mul(&beta, &eqVt[z])
				eWeights[z].Add(&wu, &wv)
			}
		}
	}
	return u, v, vu, vv, nil
}

// VerifyPublic verifies a GKR proof for a public input, settling the
// input-layer claims by direct evaluation. It returns the verified
// outputs.
func VerifyPublic(c *Circuit, input []field.Element, proof *Proof, tr *transcript.Transcript) ([]field.Element, error) {
	u, v, vu, vv, err := Verify(c, proof, tr)
	if err != nil {
		return nil, err
	}
	padded := make([]field.Element, c.InputSize)
	copy(padded, input)
	inML, err := poly.NewMultilinear(padded)
	if err != nil {
		return nil, err
	}
	gotU, err := inML.Evaluate(u)
	if err != nil {
		return nil, err
	}
	gotV, err := inML.Evaluate(v)
	if err != nil {
		return nil, err
	}
	if !gotU.Equal(&vu) || !gotV.Equal(&vv) {
		return nil, fmt.Errorf("%w: input-layer claims", ErrReject)
	}
	return proof.Outputs, nil
}

// CommittedProof is a GKR proof whose input layer is settled by a
// polynomial-commitment opening — the Virgo/Orion composition, making
// the input a committed witness the verifier never sees.
type CommittedProof struct {
	GKR        *Proof
	Commitment pcs.Commitment
	Opening    *pcs.MultiEvalProof
}

// ProveCommitted commits to the (secret) input and produces a GKR proof
// plus the batched opening of the input polynomial at the two final
// points.
func ProveCommitted(c *Circuit, input []field.Element, params pcs.Params, tr *transcript.Transcript) (*CommittedProof, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	padded := make([]field.Element, c.InputSize)
	copy(padded, input)
	st, err := pcs.Commit(padded, params)
	if err != nil {
		return nil, err
	}
	comm := st.Commitment()
	tr.AppendDigest("gkr/input-commitment", comm.Root)
	values, err := c.Evaluate(input)
	if err != nil {
		return nil, err
	}
	proof, u, v, err := ProveFromValues(c, values, tr)
	if err != nil {
		return nil, err
	}
	opening, _, err := st.ProveEvalMulti([][]field.Element{u, v}, tr)
	if err != nil {
		return nil, err
	}
	return &CommittedProof{GKR: proof, Commitment: comm, Opening: opening}, nil
}

// VerifyCommitted checks a committed-input GKR proof and returns the
// verified outputs.
func VerifyCommitted(c *Circuit, cp *CommittedProof, params pcs.Params, tr *transcript.Transcript) ([]field.Element, error) {
	if cp == nil || cp.GKR == nil || cp.Opening == nil {
		return nil, fmt.Errorf("%w: malformed committed proof", ErrReject)
	}
	tr.AppendDigest("gkr/input-commitment", cp.Commitment.Root)
	u, v, vu, vv, err := Verify(c, cp.GKR, tr)
	if err != nil {
		return nil, err
	}
	err = pcs.VerifyEvalMulti(cp.Commitment, [][]field.Element{u, v},
		[]field.Element{vu, vv}, cp.Opening, params, tr)
	if err != nil {
		return nil, fmt.Errorf("%w: input opening: %v", ErrReject, err)
	}
	return cp.GKR.Outputs, nil
}

func log2(n int) int { return bits.TrailingZeros(uint(n)) }
