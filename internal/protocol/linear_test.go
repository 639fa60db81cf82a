package protocol

import (
	"errors"
	"math/rand"
	"testing"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/poly"
)

// mixedCircuit returns a circuit of exactly n gates drawn from mul, add
// and sub over wire 0, public and secret inputs, two constants and
// earlier gates, with zero wires and two outputs. It is wiring only: no
// witness need satisfy it.
func mixedCircuit(t testing.TB, n int, seed int64) *circuit.Circuit {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder()
	wires := []circuit.Wire{b.One(), b.PublicInput(), b.PublicInput(), b.SecretInput()}
	wires = append(wires, b.Const(field.NewElement(3)), b.Const(field.NewElement(11)))
	ops := []func(x, y circuit.Wire) circuit.Wire{b.Mul, b.Add, b.Sub}
	for g := range n {
		w := ops[rng.Intn(len(ops))](wires[rng.Intn(len(wires))], wires[rng.Intn(len(wires))])
		wires = append(wires, w)
		if g%7 == 3 {
			b.AssertZero(w)
		}
	}
	b.Output(wires[len(wires)-1])
	b.Output(wires[len(wires)/2])
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != n {
		t.Fatalf("built %d gates, want %d", len(c.Gates), n)
	}
	return c
}

// TestLinearAtMatchesPublicCombination checks the verifier's Ṽ(σ)
// against its definition — publicCombination's V dotted with the full
// eq(σ, ·) table — at gate counts that hit one-gate blocks (gateVars =
// 1), partial last blocks and several chunks, and checks the result is
// bit-identical at par widths 1, 2 and 4.
func TestLinearAtMatchesPublicCombination(t *testing.T) {
	defer par.SetWidth(0)
	for _, n := range []int{1, 5, 64, 300, 5000} {
		c := mixedCircuit(t, n, int64(n))
		p, err := Setup(c)
		if err != nil {
			t.Fatal(err)
		}
		rho, tau := field.RandVector(p.gateVars), field.RandVector(p.gateVars)
		sigma := field.RandVector(p.wireVars)
		alphas := field.RandVector(3 + len(publicWires(c)))

		v := make([]field.Element, c.NumWires())
		publicCombination(c, rho, tau, alphas, v)
		want := field.InnerProduct(v, poly.EqTable(sigma)[:len(v)])

		for _, w := range []int{1, 2, 4} {
			par.SetWidth(w)
			buf := field.RandVector(c.NumWires() + 3) // stale contents, spare room
			if got := linearAt(c, rho, tau, sigma, alphas, buf); !got.Equal(&want) {
				t.Fatalf("%d gates, width %d: linearAt differs from ⟨V, eq(σ,·)⟩", n, w)
			}
		}
	}
}

// TestWireZeroNotOneRejected pins what reading the add/sub right operand
// from wire 0 changes: a witness whose wire 0 is not 1 either fails to
// prove or yields a proof Verify rejects — both when only wire 0 is off,
// and when every gate is recomputed so that L ∘ R = O holds with it.
func TestWireZeroNotOneRejected(t *testing.T) {
	mixed := mixedCircuit(t, 40, 9)
	mixed.ZeroWires = nil // only wire 0 may make its witnesses unsatisfying
	for name, c := range map[string]*circuit.Circuit{
		"add-sub-mul": buildTestCircuit(t),
		"mixed":       mixed,
	} {
		p, err := Setup(c)
		if err != nil {
			t.Fatal(err)
		}
		public := field.RandVector(c.NumPublic)
		w, err := c.Evaluate(public, field.RandVector(c.NumSecret))
		if err != nil {
			t.Fatal(err)
		}
		w[0] = field.NewElement(2)
		scaled := append(circuit.Assignment(nil), w...)
		for _, g := range c.Gates {
			l, r := gateInputs(g, scaled)
			scaled[g.Out].Mul(&l, &r)
		}
		for kind, wit := range map[string]circuit.Assignment{"wire 0 only": w, "gates recomputed": scaled} {
			proof, err := ProveWitness(c, p, wit)
			if err != nil {
				continue
			}
			if err := Verify(c, p, public, proof); !errors.Is(err, ErrReject) {
				t.Fatalf("%s, %s: Verify = %v, want rejection", name, kind, err)
			}
		}
	}
}
