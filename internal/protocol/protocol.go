// Package protocol implements the single-proof argument of knowledge
// whose batch generation BatchZK accelerates: an Orion/Brakedown-family
// protocol built from exactly the three modules of the paper's Table 1 —
// linear-time encoder + Merkle tree (the polynomial commitment) and the
// sum-check protocol (the circuit-satisfaction argument). No NTT, no MSM.
//
// The proofs are not zero-knowledge. Nothing is masked: the commitment
// is not hiding, the opened columns of its systematic code carry witness
// entries verbatim (TestOpenedColumnsLeakWitness pins this), and the
// sum-check messages and the claims L(ρ), R(ρ), W(σ) are evaluations of
// the witness. The paper's protocol family reaches zero-knowledge by
// masking; this reproduction measures the unmasked prover.
//
// For a circuit C with public inputs x, secret inputs w and outputs y, the
// prover shows knowledge of a full wire assignment W satisfying every gate
// and consistent with (x, y):
//
//  1. Commit. The padded wire vector is committed with the pcs package
//     (encode rows → Merkle-hash columns), yielding root R — the
//     encoder/Merkle stage of the paper's Figure 7 pipeline.
//  2. Hadamard check. Gate semantics are flattened to L ∘ R = O over the
//     gate hypercube (add/sub gates take right operand wire 0, the
//     constant 1). A random τ reduces this to the claim
//     Σ_b eq(τ,b)·L(b)·R(b) = Õ(τ), settled by a degree-3 sum-check.
//  3. Linear check. The sum-check leaves claims L(ρ), R(ρ), Õ(τ); together
//     with the public-input/output wire claims they are all inner products
//     ⟨v, W⟩ with publicly computable vectors v. A random combination
//     batches them into one degree-2 product sum-check.
//  4. Opening. The final sum-check point requires one evaluation of W,
//     proven through the polynomial commitment.
//
// The verifier runs in O(|C|) time, matching the paper's protocol family,
// whose proofs are "relatively larger and reach several MB" with
// linear-time verifiers: it evaluates the combination vector's MLE at σ
// itself, in one pass over the gates that never builds the vector
// (linearAt), and its sum-check rounds do no field inversion.
package protocol

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/pcs"
	"batchzk/internal/poly"
	"batchzk/internal/sumcheck"
	"batchzk/internal/transcript"
)

// Domain is the Fiat–Shamir domain label of the protocol.
const Domain = "batchzk/protocol"

// Params fixes the commitment layout for a circuit.
type Params struct {
	PCS      pcs.Params
	NumWires int // padded wire-vector length (power of two)
	NumGates int // padded gate count (power of two)
	wireVars int
	gateVars int
}

// Setup derives protocol parameters from a circuit.
func Setup(c *circuit.Circuit) (*Params, error) {
	if c.NumWires() == 0 || len(c.Gates) == 0 {
		return nil, fmt.Errorf("protocol: empty circuit")
	}
	nw := nextPow2(c.NumWires())
	if nw < 16 {
		nw = 16 // the PCS needs at least one encoder base row
	}
	ng := nextPow2(len(c.Gates))
	if ng < 2 {
		ng = 2 // at least one sum-check round
	}
	p := &Params{
		PCS:      pcs.NewParams(log2(nw)),
		NumWires: nw,
		NumGates: ng,
		wireVars: log2(nw),
		gateVars: log2(ng),
	}
	return p, nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func log2(n int) int { return bits.TrailingZeros(uint(n)) }

// Proof is a complete non-interactive argument.
type Proof struct {
	Commitment pcs.Commitment
	Outputs    []field.Element // claimed circuit outputs

	OTau     field.Element // claimed Õ(τ)
	Hadamard *sumcheck.TripleProof
	LRho     field.Element // claimed L(ρ)
	RRho     field.Element // claimed R(ρ)

	Linear   *sumcheck.ProductProof
	WSigma   field.Element // claimed W(σ)
	PCSProof *pcs.EvalProof
}

// gateInputs returns gate g's entries of the L and R tables: its two
// operands for a multiplication, or their sum/difference and wire 0 (the
// constant 1) for an addition/subtraction, so that L ∘ R = O holds for
// every gate. Both are linear in w: applied to eq(σ, ·) instead of a
// witness, they give the gate's row of the wiring maps at σ (linearAt).
func gateInputs(gate circuit.Gate, w []field.Element) (l, r field.Element) {
	switch gate.Op {
	case circuit.OpMul:
		return w[gate.A], w[gate.B]
	case circuit.OpAdd:
		l.Add(&w[gate.A], &w[gate.B])
	case circuit.OpSub:
		l.Sub(&w[gate.A], &w[gate.B])
	}
	return l, w[0]
}

// hadamardSource supplies the gate sum-check's two tables, L and R over
// the padded gate hypercube, computed on the fly from the witness, so
// neither is ever stored; padding gates read as zero. The third factor,
// eq(τ, ·), is the sum-check's own (sumcheck.ProveEqProduct).
func hadamardSource(c *circuit.Circuit, w []field.Element) sumcheck.Source {
	return func(lo int, dst [][]field.Element) {
		l, r := dst[0], dst[1]
		for i := range l {
			if g := lo + i; g < len(c.Gates) {
				l[i], r[i] = gateInputs(c.Gates[g], w)
			} else {
				l[i], r[i] = field.Element{}, field.Element{}
			}
		}
	}
}

// outputAt returns Õ(τ) = Σ_g eq(τ, g)·W[Out_g], the multilinear extension
// of the gates' output wires at τ.
func outputAt(c *circuit.Circuit, eqTau *splitEq, w []field.Element) field.Element {
	var sum, e, t field.Element
	for g, gate := range c.Gates {
		eqTau.at(&e, g)
		t.Mul(&e, &w[gate.Out])
		sum.Add(&sum, &t)
	}
	return sum
}

// splitEq is the table eq(z, ·) over the hypercube held as two half
// tables: with k = ⌊len(z)/2⌋, eq(z, g) = lo[g mod 2ᵏ]·hi[g >> k]. It
// costs one Mul per lookup and O(√2ⁿ) memory instead of the 2ⁿ table.
type splitEq struct {
	lo, hi []field.Element
	k      uint
	mask   int
}

func newSplitEq(z []field.Element) splitEq {
	k := len(z) / 2
	return splitEq{lo: poly.EqTable(z[:k]), hi: poly.EqTable(z[k:]), k: uint(k), mask: 1<<k - 1}
}

// at sets e = eq(z, g).
func (s *splitEq) at(e *field.Element, g int) {
	e.Mul(&s.lo[g&s.mask], &s.hi[g>>s.k])
}

// publicCombination builds the batched linear-check vector
// V = α0·vL(ρ) + α1·vR(ρ) + α2·vO(τ) + Σ αk·e_{public wires},
// where vL, vR, vO are the transposes of the gate wiring maps applied to
// eq(ρ, ·) and eq(τ, ·) — the prover's linear-stage table, O(|C|). V is
// zero on the padding wires, so it is written over the circuit's wires
// only, into v (c.NumWires() entries, whatever they held). The verifier
// needs only Ṽ at one point and gets it from linearAt without building V.
func publicCombination(c *circuit.Circuit, rho, tau, alphas, v []field.Element) {
	clear(v)
	eqRho, eqTau := newSplitEq(rho), newSplitEq(tau)
	var t, er, et field.Element
	for g, gate := range c.Gates {
		eqRho.at(&er, g)
		switch gate.Op {
		case circuit.OpMul:
			// vL[A] += α0·eqρ[g]; vR[B] += α1·eqρ[g]
			t.Mul(&alphas[0], &er)
			v[gate.A].Add(&v[gate.A], &t)
			t.Mul(&alphas[1], &er)
			v[gate.B].Add(&v[gate.B], &t)
		case circuit.OpAdd:
			t.Mul(&alphas[0], &er)
			v[gate.A].Add(&v[gate.A], &t)
			v[gate.B].Add(&v[gate.B], &t)
			t.Mul(&alphas[1], &er)
			v[0].Add(&v[0], &t)
		case circuit.OpSub:
			t.Mul(&alphas[0], &er)
			v[gate.A].Add(&v[gate.A], &t)
			v[gate.B].Sub(&v[gate.B], &t)
			t.Mul(&alphas[1], &er)
			v[0].Add(&v[0], &t)
		}
		// vO[Out] += α2·eqτ[g]
		eqTau.at(&et, g)
		t.Mul(&alphas[2], &et)
		v[gate.Out].Add(&v[gate.Out], &t)
	}
	// Public wires: the constant-one wire, public inputs, constants, and
	// output wires, each pinned with its own α.
	for k, wi := range publicWires(c) {
		v[wi].Add(&v[wi], &alphas[3+k])
	}
}

// linearAt returns Ṽ(σ), the multilinear extension at σ of the vector
// publicCombination builds, without building it. V is the wiring maps
// transposed, so its inner product with eq(σ, ·) is the maps applied to
// eq(σ, ·):
//
//	Ṽ(σ) = α0·Σ_g eq(ρ,g)·L_σ(g) + α1·Σ_g eq(ρ,g)·R_σ(g)
//	     + α2·Σ_g eq(τ,g)·eq(σ,Out_g) + Σ_k α3+k·eq(σ,wire_k)
//
// with (L_σ(g), R_σ(g)) = gateInputs(gate g, eq(σ, ·)). eq(σ, ·) is
// written over the circuit's wires into eqSigma (at least c.NumWires()
// entries, whatever they held), one Mul per wire. eq(ρ, ·) and eq(τ, ·)
// stay factored: gate g = h·2ᵏ + i weighs lo[i]·hi[h], so each block h of
// 2ᵏ gates sums lo[i]·(its term) and multiplies by hi[h] once. Blocks run
// as par chunks, whose partial sums add up in chunk order.
func linearAt(c *circuit.Circuit, rho, tau, sigma, alphas, eqSigma []field.Element) field.Element {
	eqSigma = eqSigma[:c.NumWires()]
	es := newSplitEq(sigma)
	par.For(len(eqSigma), func(lo, hi int) {
		for b := lo; b < hi; b++ {
			es.at(&eqSigma[b], b)
		}
	})
	eqRho, eqTau := newSplitEq(rho), newSplitEq(tau)
	k := eqRho.k
	blocks := (len(c.Gates) + eqRho.mask) >> k
	s := par.GetScratch()
	defer par.PutScratch(s)
	nc := par.Chunks(0, blocks)
	partial := s.ZeroElements(0, 3*nc) // per chunk: Σ over L, R, O
	par.ForChunks(nc, blocks, func(chunk, lo, hi int) {
		var sumL, sumR, sumO, inL, inR, inO, t field.Element
		for h := lo; h < hi; h++ {
			inL, inR, inO = field.Element{}, field.Element{}, field.Element{}
			for i, gate := range c.Gates[h<<k : min((h+1)<<k, len(c.Gates))] {
				l, r := gateInputs(gate, eqSigma)
				t.Mul(&eqRho.lo[i], &l)
				inL.Add(&inL, &t)
				t.Mul(&eqRho.lo[i], &r)
				inR.Add(&inR, &t)
				t.Mul(&eqTau.lo[i], &eqSigma[gate.Out])
				inO.Add(&inO, &t)
			}
			t.Mul(&eqRho.hi[h], &inL)
			sumL.Add(&sumL, &t)
			t.Mul(&eqRho.hi[h], &inR)
			sumR.Add(&sumR, &t)
			t.Mul(&eqTau.hi[h], &inO)
			sumO.Add(&sumO, &t)
		}
		partial[3*chunk], partial[3*chunk+1], partial[3*chunk+2] = sumL, sumR, sumO
	})
	var sum, t field.Element
	for chunk := 0; chunk < len(partial); chunk += 3 {
		for j := range 3 {
			t.Mul(&alphas[j], &partial[chunk+j])
			sum.Add(&sum, &t)
		}
	}
	for j, wi := range publicWires(c) {
		t.Mul(&alphas[3+j], &eqSigma[wi])
		sum.Add(&sum, &t)
	}
	return sum
}

// publicWires lists the wires whose values the verifier pins: wire 0,
// public inputs, declared constants, circuit outputs, and the declared
// zero wires (gadget constraints).
func publicWires(c *circuit.Circuit) []int {
	wires := []int{0}
	for i := 0; i < c.NumPublic; i++ {
		wires = append(wires, 1+i)
	}
	for _, cw := range c.ConstWires {
		wires = append(wires, int(cw))
	}
	for _, o := range c.Outputs {
		wires = append(wires, int(o))
	}
	for _, z := range c.ZeroWires {
		wires = append(wires, int(z))
	}
	return wires
}

// publicWireValues returns the expected values of publicWires given the
// public inputs and claimed outputs.
func publicWireValues(c *circuit.Circuit, public, outputs []field.Element) []field.Element {
	vals := []field.Element{field.One()}
	vals = append(vals, public...)
	vals = append(vals, c.Constants...)
	vals = append(vals, outputs...)
	vals = append(vals, make([]field.Element, len(c.ZeroWires))...)
	return vals
}

// Prove evaluates the circuit on (public, secret) and produces a proof of
// correct execution. The returned proof carries the circuit outputs.
func Prove(c *circuit.Circuit, p *Params, public, secret []field.Element) (*Proof, error) {
	f, err := StartProofFromInputs(c, p, public, secret)
	if err != nil {
		return nil, err
	}
	return f.run()
}

// ProveWitness proves a precomputed witness (callers that already ran the
// function, e.g. the ML engine of §5, reuse their wire values). It runs
// the four pipeline stages back to back; the batch system in internal/core
// streams many proofs through the same stages concurrently.
func ProveWitness(c *circuit.Circuit, p *Params, w circuit.Assignment) (*Proof, error) {
	f, err := StartProof(c, p, w)
	if err != nil {
		return nil, err
	}
	return f.run()
}

// StartProofStreaming is StartProof, under the name it had while a
// separate out-of-core commit path existed; the one commit path is now
// that path.
func StartProofStreaming(c *circuit.Circuit, p *Params, w circuit.Assignment) (*InFlight, error) {
	return StartProof(c, p, w)
}

// ProveWitnessStreaming is ProveWitness (see StartProofStreaming).
func ProveWitnessStreaming(c *circuit.Circuit, p *Params, w circuit.Assignment) (*Proof, error) {
	return ProveWitness(c, p, w)
}

// run takes a started proof through the remaining three stages.
func (f *InFlight) run() (*Proof, error) {
	if err := f.RunHadamard(); err != nil {
		return nil, err
	}
	if err := f.RunLinear(); err != nil {
		return nil, err
	}
	return f.Finish()
}

// InFlight is a proof under construction, moving through the prover's
// pipeline stages: StartProof (encode + Merkle commit) → RunHadamard
// (gate-consistency sum-check) → RunLinear (batched linear sum-check) →
// Finish (polynomial-commitment opening). Each stage matches one module
// family of the paper's Figure 7 pipeline.
//
// Between stages an in-flight proof holds the witness (unpadded: the
// padding wires are zero and every consumer reads them as such), the
// Merkle column tree, the transcript and the proof so far. The encoded
// matrix is never held: the commitment streams each block of codewords
// into the column hashes, and Finish re-encodes the challenged columns
// from the witness. The sum-check tables are never held in full either:
// each stage's first rounds read them off the witness (sumcheck.Source),
// and only the tables left after those rounds' folds — a quarter of full
// size — are stored, until the stage ends.
type InFlight struct {
	c     *circuit.Circuit
	p     *Params
	w     []field.Element // the witness, the only copy held (an Arena's)
	ss    *pcs.StreamState
	tr    *transcript.Transcript
	proof *Proof

	tau, rho, sigma []field.Element
}

// Arena is the memory a proof holds from its first stage to its last,
// beyond the proof itself: the witness. A proof never aliases its arena,
// so once Finish has returned (or the proof has failed) the arena may
// start the next proof, which then allocates no witness. The zero value
// is an empty arena; an arena serves one proof at a time. What a single
// stage needs — the commitment's zero padding, the linear check's V, the
// opening's padded last row — comes from free lists or scratch instead,
// so idle arenas do not hold a copy of it each.
type Arena struct {
	w []field.Element
}

// Stage-local buffers, shared by every proof and verification: zero rows
// to pad the commitment with (never written, so they stay zero) and the
// linear check's wire-length tables (the prover's V, the verifier's
// eq(σ, ·)).
var zeroRows, linearVs par.FreeList[[]field.Element]

// take returns *buf resized to n entries, reallocating only when it is
// too short. The entries keep whatever they held.
func take(buf *[]field.Element, n int) []field.Element {
	if cap(*buf) < n {
		*buf = make([]field.Element, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// StartProof runs the commitment stage: the padded wire vector is encoded
// row by row (linear-time encoder) and its columns Merkle-hashed. w is
// copied, so the caller may reuse it.
func StartProof(c *circuit.Circuit, p *Params, w circuit.Assignment) (*InFlight, error) {
	return new(Arena).StartProof(c, p, w)
}

// StartProofFromInputs is StartProof for a witness the circuit has yet to
// compute: the proof keeps the witness the evaluation produces, so it
// exists once.
func StartProofFromInputs(c *circuit.Circuit, p *Params, public, secret []field.Element) (*InFlight, error) {
	return new(Arena).StartProofFromInputs(c, p, public, secret)
}

// StartProof is the package's StartProof working in a.
func (a *Arena) StartProof(c *circuit.Circuit, p *Params, w circuit.Assignment) (*InFlight, error) {
	if len(w) != c.NumWires() {
		return nil, fmt.Errorf("protocol: witness length %d, want %d", len(w), c.NumWires())
	}
	a.w = append(a.w[:0], w...)
	return a.start(c, p)
}

// StartProofFromInputs is the package's StartProofFromInputs working in a.
func (a *Arena) StartProofFromInputs(c *circuit.Circuit, p *Params, public, secret []field.Element) (*InFlight, error) {
	w, err := c.EvaluateInto(a.w, public, secret)
	if err != nil {
		return nil, err
	}
	a.w = w
	return a.start(c, p)
}

// start commits to the padded witness a.w in row-aligned blocks: the
// committer encodes each block into its arena, absorbs the columns into
// their hashes and moves on, so only a block of codeword rows is ever
// live.
func (a *Arena) start(c *circuit.Circuit, p *Params) (*InFlight, error) {
	w := a.w
	sc, err := pcs.NewStreamingCommitter(p.PCS, pcs.RetainTree)
	if err != nil {
		return nil, err
	}
	if err := sc.AddChunk(w); err != nil {
		return nil, err
	}
	// The padding: zero rows, fed 16 at a time (the committer's flush
	// block) so they are hashed in whole blocks too.
	zBuf := zeroRows.Get()
	defer zeroRows.Put(zBuf)
	zeros := take(zBuf, min(p.NumWires-len(w), 16*p.PCS.NumCols))
	for left := p.NumWires - len(w); left > 0; left -= len(zeros) {
		if err := sc.AddChunk(zeros[:min(left, len(zeros))]); err != nil {
			return nil, err
		}
	}
	ss, err := sc.Finish()
	if err != nil {
		return nil, err
	}
	f := &InFlight{
		c: c, p: p, w: w, ss: ss,
		tr:    transcript.New(Domain),
		proof: &Proof{Commitment: ss.Commitment()},
	}
	f.proof.Outputs, err = c.OutputValues(w)
	if err != nil {
		return nil, err
	}
	f.tr.AppendDigest("commit", f.proof.Commitment.Root)
	f.tr.AppendElements("outputs", f.proof.Outputs)
	return f, nil
}

// RunHadamard runs the gate-consistency stage: the claim L ∘ R = O over
// the gate hypercube is reduced at a random τ and settled by a degree-3
// sum-check.
func (f *InFlight) RunHadamard() error {
	f.tau = f.tr.ChallengeElements("tau", f.p.gateVars)
	eqTau := newSplitEq(f.tau)
	f.proof.OTau = outputAt(f.c, &eqTau, f.w)
	f.tr.AppendElement("o_tau", &f.proof.OTau)

	had, rho, hadClaim, finals := sumcheck.ProveEqProduct(f.tau, hadamardSource(f.c, f.w), f.tr)
	if !hadClaim.Equal(&f.proof.OTau) {
		return fmt.Errorf("protocol: Σ eq·L·R != Õ(τ); witness does not satisfy the circuit")
	}
	f.rho = rho
	f.proof.Hadamard = had
	f.proof.LRho = finals[0]
	f.proof.RRho = finals[1]
	f.tr.AppendElement("l_rho", &f.proof.LRho)
	f.tr.AppendElement("r_rho", &f.proof.RRho)
	return nil
}

// RunLinear runs the batched linear-check stage: the sum-check's leftover
// claims and the public-wire claims become one product sum-check.
func (f *InFlight) RunLinear() error {
	wires := publicWires(f.c)
	alphas := f.tr.ChallengeElements("alpha", 3+len(wires))
	vBuf := linearVs.Get()
	defer linearVs.Put(vBuf)
	v := take(vBuf, f.c.NumWires())
	publicCombination(f.c, f.rho, f.tau, alphas, v)
	lin, sigma, _, linFinals := sumcheck.ProveProductFrom(f.p.wireVars, sumcheck.TableSource(v, f.w), f.tr)
	f.sigma = sigma
	f.proof.Linear = lin
	f.proof.WSigma = linFinals[1]
	f.tr.AppendElement("w_sigma", &f.proof.WSigma)
	return nil
}

// Finish runs the opening stage and assembles the proof: the opening
// re-reads rows from the padded witness and re-encodes the challenged
// columns. The prover state and witness buffer are released on return:
// the column tree's memory goes to the next commitment, and the arena is
// free for the next proof.
func (f *InFlight) Finish() (*Proof, error) {
	var err error
	s := par.GetScratch()
	defer par.PutScratch(s)
	rows := witnessRows(f.w, f.p.PCS.NumCols, s.Elements(0, 2*f.p.PCS.NumCols))
	if f.proof.PCSProof, _, err = f.ss.ProveEval(rows, f.sigma, f.tr); err != nil {
		return nil, err
	}
	f.ss.Release()
	f.ss, f.w = nil, nil
	return f.proof, nil
}

// witnessRows is the pcs.RowAt of the committed matrix — the witness
// zero-padded to NumWires, cols per row — served from the unpadded
// witness: a window of it, the last partial row padded (in tail, 2·cols
// entries, overwritten), or a zero row.
func witnessRows(w []field.Element, cols int, tail []field.Element) pcs.RowAt {
	whole := len(w) / cols
	clear(tail)
	copy(tail, w[whole*cols:])
	return func(r int) []field.Element {
		switch {
		case r < whole:
			return w[r*cols : (r+1)*cols]
		case r == whole:
			return tail[:cols]
		default:
			return tail[cols:]
		}
	}
}

// ErrReject is returned when a proof fails verification.
var ErrReject = errors.New("protocol: proof rejected")

// VerifyBatch verifies many proofs concurrently (verification of
// independent proofs is embarrassingly parallel, unlike generation, which
// is what the paper pipelines). It returns one error slot per proof.
func VerifyBatch(c *circuit.Circuit, p *Params, publics [][]field.Element, proofs []*Proof) []error {
	errs := make([]error, len(proofs))
	var wg sync.WaitGroup
	for i := range proofs {
		if i >= len(publics) {
			errs[i] = fmt.Errorf("protocol: missing public inputs for proof %d", i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = Verify(c, p, publics[i], proofs[i])
		}(i)
	}
	wg.Wait()
	return errs
}

// Verify checks a proof against the circuit and public inputs; the claimed
// outputs are carried in the proof and validated as part of verification.
func Verify(c *circuit.Circuit, p *Params, public []field.Element, proof *Proof) error {
	if proof == nil || proof.Hadamard == nil || proof.Linear == nil || proof.PCSProof == nil {
		return fmt.Errorf("%w: missing components", ErrReject)
	}
	if len(public) != c.NumPublic {
		return fmt.Errorf("protocol: %d public inputs, want %d", len(public), c.NumPublic)
	}
	if len(proof.Outputs) != len(c.Outputs) {
		return fmt.Errorf("%w: %d outputs, want %d", ErrReject, len(proof.Outputs), len(c.Outputs))
	}
	if proof.Commitment.NumRows != p.PCS.NumRows || proof.Commitment.NumCols != p.PCS.NumCols {
		return fmt.Errorf("%w: commitment layout mismatch", ErrReject)
	}
	tr := transcript.New(Domain)
	tr.AppendDigest("commit", proof.Commitment.Root)
	tr.AppendElements("outputs", proof.Outputs)

	// 2. Hadamard sum-check against the claimed Õ(τ).
	tau := tr.ChallengeElements("tau", p.gateVars)
	tr.AppendElement("o_tau", &proof.OTau)
	rho, finalTriple, err := sumcheck.VerifyTriple(p.gateVars, proof.OTau, proof.Hadamard, tr)
	if err != nil {
		return fmt.Errorf("%w: hadamard: %v", ErrReject, err)
	}
	tr.AppendElement("l_rho", &proof.LRho)
	tr.AppendElement("r_rho", &proof.RRho)
	// eq(τ, ρ)·L(ρ)·R(ρ) must equal the sum-check's final value.
	eqAt, err := poly.EqEval(tau, rho)
	if err != nil {
		return err
	}
	var prod field.Element
	prod.Mul(&eqAt, &proof.LRho)
	prod.Mul(&prod, &proof.RRho)
	if !prod.Equal(&finalTriple) {
		return fmt.Errorf("%w: hadamard final check", ErrReject)
	}

	// 3. Linear check: batched claim value.
	wires := publicWires(c)
	alphas := tr.ChallengeElements("alpha", 3+len(wires))
	vals := publicWireValues(c, public, proof.Outputs)
	var claim, t field.Element
	t.Mul(&alphas[0], &proof.LRho)
	claim.Add(&claim, &t)
	t.Mul(&alphas[1], &proof.RRho)
	claim.Add(&claim, &t)
	t.Mul(&alphas[2], &proof.OTau)
	claim.Add(&claim, &t)
	for k := range wires {
		t.Mul(&alphas[3+k], &vals[k])
		claim.Add(&claim, &t)
	}
	sigma, finalLin, err := sumcheck.VerifyProduct(p.wireVars, claim, proof.Linear, tr)
	if err != nil {
		return fmt.Errorf("%w: linear: %v", ErrReject, err)
	}
	tr.AppendElement("w_sigma", &proof.WSigma)
	// The verifier evaluates Ṽ(σ) itself (O(|C|)) and checks
	// Ṽ(σ)·W(σ) == final.
	eqBuf := linearVs.Get()
	defer linearVs.Put(eqBuf)
	vSigma := linearAt(c, rho, tau, sigma, alphas, take(eqBuf, c.NumWires()))
	prod.Mul(&vSigma, &proof.WSigma)
	if !prod.Equal(&finalLin) {
		return fmt.Errorf("%w: linear final check", ErrReject)
	}

	// 4. PCS opening of W(σ).
	if err := pcs.VerifyEval(proof.Commitment, sigma, proof.WSigma, proof.PCSProof, p.PCS, tr); err != nil {
		return fmt.Errorf("%w: opening: %v", ErrReject, err)
	}
	return nil
}
