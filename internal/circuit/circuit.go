// Package circuit provides the arithmetic-circuit layer of the
// reproduction: the function F in y = F(x, w) is compiled to a circuit,
// the prover evaluates it to obtain the full wire assignment (witness),
// and the ZKP systems prove knowledge of a satisfying assignment.
//
// The paper's experiments are parameterized by the scale S, "the number of
// multiplication gates in the circuit compiled from the function to be
// proved" (Table 7); RandomCircuit synthesizes benchmark circuits with a
// requested multiplication-gate count, and the R1CS export feeds the
// Groth16-style baselines, whose MSM/NTT sizes are functions of the
// constraint count.
package circuit

import (
	"fmt"
	"math/rand"

	"batchzk/internal/field"
)

// Wire identifies a value in the circuit; wire 0 is the constant 1.
type Wire int

// GateOp is the operation of a gate.
type GateOp uint8

// Gate operations.
const (
	OpAdd GateOp = iota // out = a + b
	OpMul               // out = a · b
	OpSub               // out = a − b
)

func (op GateOp) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpMul:
		return "mul"
	case OpSub:
		return "sub"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Gate is a two-input arithmetic gate writing to its own output wire.
type Gate struct {
	Op   GateOp
	A, B Wire
	Out  Wire
}

// Circuit is a compiled arithmetic circuit. Wire 0 carries the constant 1,
// wires 1..NumPublic the public inputs, the next NumSecret wires the
// secret inputs; constant wires and gate-output wires follow in creation
// order (ConstWires records where each constant landed). Gates are stored
// in topological (creation) order.
type Circuit struct {
	NumPublic  int
	NumSecret  int
	Constants  []field.Element
	ConstWires []Wire
	Gates      []Gate
	Outputs    []Wire
	// ZeroWires must carry 0 in any satisfying assignment; the protocol
	// pins each with its own post-commitment random coefficient, which is
	// how gadget constraints (bit checks, range recompositions) are
	// soundly enforced without inflating the proof.
	ZeroWires []Wire
	numWires  int
}

// NumWires returns the total wire count (the witness vector length).
func (c *Circuit) NumWires() int { return c.numWires }

// NumMulGates returns the multiplication-gate count — the paper's scale S.
func (c *Circuit) NumMulGates() int {
	n := 0
	for _, g := range c.Gates {
		if g.Op == OpMul {
			n++
		}
	}
	return n
}

// Assignment is a full wire assignment (witness), indexed by Wire.
type Assignment []field.Element

// Evaluate computes the witness for the given inputs.
func (c *Circuit) Evaluate(public, secret []field.Element) (Assignment, error) {
	return c.EvaluateInto(nil, public, secret)
}

// EvaluateInto is Evaluate writing the witness into dst's memory, which it
// grows only if dst is too short; whatever dst held is overwritten. A
// caller that proves one circuit many times reuses one buffer this way.
func (c *Circuit) EvaluateInto(dst Assignment, public, secret []field.Element) (Assignment, error) {
	if len(public) != c.NumPublic {
		return nil, fmt.Errorf("circuit: %d public inputs, want %d", len(public), c.NumPublic)
	}
	if len(secret) != c.NumSecret {
		return nil, fmt.Errorf("circuit: %d secret inputs, want %d", len(secret), c.NumSecret)
	}
	w := dst[:0]
	if cap(w) < c.numWires {
		w = make(Assignment, c.numWires)
	}
	w = w[:c.numWires]
	clear(w)
	w[0] = field.One()
	copy(w[1:], public)
	copy(w[1+c.NumPublic:], secret)
	for i, cw := range c.ConstWires {
		w[cw] = c.Constants[i]
	}
	for _, g := range c.Gates {
		switch g.Op {
		case OpAdd:
			w[g.Out].Add(&w[g.A], &w[g.B])
		case OpMul:
			w[g.Out].Mul(&w[g.A], &w[g.B])
		case OpSub:
			w[g.Out].Sub(&w[g.A], &w[g.B])
		default:
			return nil, fmt.Errorf("circuit: unknown gate op %v", g.Op)
		}
	}
	return w, nil
}

// OutputValues extracts the circuit outputs from a witness.
func (c *Circuit) OutputValues(w Assignment) ([]field.Element, error) {
	if len(w) != c.numWires {
		return nil, fmt.Errorf("circuit: witness length %d, want %d", len(w), c.numWires)
	}
	out := make([]field.Element, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = w[o]
	}
	return out, nil
}

// CheckWitness re-executes every gate against a claimed witness.
func (c *Circuit) CheckWitness(w Assignment) error {
	if len(w) != c.numWires {
		return fmt.Errorf("circuit: witness length %d, want %d", len(w), c.numWires)
	}
	if !w[0].IsOne() {
		return fmt.Errorf("circuit: wire 0 must be 1")
	}
	for i, cw := range c.ConstWires {
		if !w[cw].Equal(&c.Constants[i]) {
			return fmt.Errorf("circuit: constant wire %d has wrong value", cw)
		}
	}
	var want field.Element
	for gi, g := range c.Gates {
		switch g.Op {
		case OpAdd:
			want.Add(&w[g.A], &w[g.B])
		case OpMul:
			want.Mul(&w[g.A], &w[g.B])
		case OpSub:
			want.Sub(&w[g.A], &w[g.B])
		}
		if !want.Equal(&w[g.Out]) {
			return fmt.Errorf("circuit: gate %d (%v) unsatisfied", gi, g.Op)
		}
	}
	for _, z := range c.ZeroWires {
		if !w[z].IsZero() {
			return fmt.Errorf("circuit: zero wire %d carries a non-zero value", z)
		}
	}
	return nil
}

// Builder assembles a circuit incrementally.
type Builder struct {
	c         Circuit
	nextWire  Wire
	constPool map[[32]byte]Wire
	finalized bool
}

// NewBuilder returns an empty circuit builder.
func NewBuilder() *Builder {
	return &Builder{nextWire: 1, constPool: map[[32]byte]Wire{}}
}

// PublicInput declares a public input wire. All inputs must be declared
// before any gate or constant is added.
func (b *Builder) PublicInput() Wire {
	if len(b.c.Gates) > 0 || len(b.c.Constants) > 0 {
		panic("circuit: declare inputs before gates/constants")
	}
	b.c.NumPublic++
	w := b.nextWire
	b.nextWire++
	return w
}

// SecretInput declares a secret (witness) input wire.
func (b *Builder) SecretInput() Wire {
	if len(b.c.Gates) > 0 || len(b.c.Constants) > 0 {
		panic("circuit: declare inputs before gates/constants")
	}
	b.c.NumSecret++
	w := b.nextWire
	b.nextWire++
	return w
}

// Const returns a wire carrying the constant v (deduplicated).
func (b *Builder) Const(v field.Element) Wire {
	key := v.ToBytes()
	if w, ok := b.constPool[key]; ok {
		return w
	}
	w := b.nextWire
	b.nextWire++
	b.c.Constants = append(b.c.Constants, v)
	b.c.ConstWires = append(b.c.ConstWires, w)
	b.constPool[key] = w
	return w
}

// One returns the constant-1 wire.
func (b *Builder) One() Wire { return 0 }

func (b *Builder) gate(op GateOp, x, y Wire) Wire {
	if x >= b.nextWire || y >= b.nextWire || x < 0 || y < 0 {
		panic(fmt.Sprintf("circuit: gate references undefined wire (%d, %d)", x, y))
	}
	out := b.nextWire
	b.nextWire++
	b.c.Gates = append(b.c.Gates, Gate{Op: op, A: x, B: y, Out: out})
	return out
}

// Add returns a wire carrying x + y.
func (b *Builder) Add(x, y Wire) Wire { return b.gate(OpAdd, x, y) }

// Sub returns a wire carrying x − y.
func (b *Builder) Sub(x, y Wire) Wire { return b.gate(OpSub, x, y) }

// Mul returns a wire carrying x · y.
func (b *Builder) Mul(x, y Wire) Wire { return b.gate(OpMul, x, y) }

// MulConst returns a wire carrying v · x.
func (b *Builder) MulConst(v field.Element, x Wire) Wire {
	return b.Mul(b.Const(v), x)
}

// AddConst returns a wire carrying x + v.
func (b *Builder) AddConst(x Wire, v field.Element) Wire {
	return b.Add(x, b.Const(v))
}

// Output marks a wire as a circuit output.
func (b *Builder) Output(w Wire) { b.c.Outputs = append(b.c.Outputs, w) }

// AssertZero constrains a wire to be zero in every satisfying assignment.
func (b *Builder) AssertZero(w Wire) { b.c.ZeroWires = append(b.c.ZeroWires, w) }

// Build finalizes and returns the circuit; the builder cannot be reused.
func (b *Builder) Build() (*Circuit, error) {
	if b.finalized {
		return nil, fmt.Errorf("circuit: builder already finalized")
	}
	b.finalized = true
	b.c.numWires = int(b.nextWire)
	out := b.c
	return &out, nil
}

// RandomCircuit synthesizes a benchmark circuit with exactly mulGates
// multiplication gates (plus interleaved additions), numPublic public and
// numSecret secret inputs — the random-circuit workloads behind the
// paper's Table 7 scales. The generator is deterministic in seed.
func RandomCircuit(mulGates, numPublic, numSecret int, seed int64) (*Circuit, error) {
	if mulGates < 1 || numPublic < 1 || numSecret < 1 {
		return nil, fmt.Errorf("circuit: need at least one mul gate and one input of each kind")
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	wires := make([]Wire, 0, mulGates+numPublic+numSecret)
	for i := 0; i < numPublic; i++ {
		wires = append(wires, b.PublicInput())
	}
	for i := 0; i < numSecret; i++ {
		wires = append(wires, b.SecretInput())
	}
	pick := func() Wire { return wires[rng.Intn(len(wires))] }
	for m := 0; m < mulGates; m++ {
		w := b.Mul(pick(), pick())
		if rng.Intn(4) == 0 {
			w = b.Add(w, pick())
		}
		wires = append(wires, w)
	}
	b.Output(wires[len(wires)-1])
	return b.Build()
}
