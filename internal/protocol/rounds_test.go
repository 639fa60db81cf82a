package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
	"batchzk/internal/poly"
	"batchzk/internal/sumcheck"
)

// forgeRounds returns honest with its Hadamard or linear sum-check swapped
// for one of the given round count that still passes every round check:
// an honest sum-check of the stage's claim over the tables [claim] and
// [1, …] zero-padded to that size, run on the transcript the verifier
// replays up to that stage.
func forgeRounds(t *testing.T, c *circuit.Circuit, p *Params, public, secret []field.Element, honest *Proof, linear bool, rounds int) *Proof {
	t.Helper()
	f, err := StartProofFromInputs(c, p, public, secret)
	if err != nil {
		t.Fatal(err)
	}
	one := []field.Element{field.One()}
	forged := *honest
	if !linear {
		f.tr.ChallengeElements("tau", p.gateVars)
		f.tr.AppendElement("o_tau", &honest.OTau)
		forged.Hadamard, _, _, _, _ = sumcheck.ProveTriple(padded(t, honest.OTau, rounds), padded(t, field.One(), rounds), padded(t, field.One(), rounds), f.tr)
		return &forged
	}
	if err := f.RunHadamard(); err != nil {
		t.Fatal(err)
	}
	f.tr.ChallengeElements("alpha", 3+len(publicWires(c)))
	var claim field.Element
	claim.Add(&honest.Linear.Rounds[0].At0, &honest.Linear.Rounds[0].At1)
	forged.Linear, _, _, _ = sumcheck.ProveProductFrom(rounds, sumcheck.TableSource([]field.Element{claim}, one), f.tr)
	return &forged
}

// padded is the multilinear of n variables whose table is v, then zeros.
func padded(t *testing.T, v field.Element, n int) *poly.Multilinear {
	t.Helper()
	evals := make([]field.Element, 1<<n)
	evals[0] = v
	m, err := poly.NewMultilinear(evals)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestVerifyRejectsWrongRoundCount: a sum-check with one round too few or
// too many is rejected with ErrReject, never a panic or another error,
// whether handed over as a struct or decoded from its bytes.
func TestVerifyRejectsWrongRoundCount(t *testing.T) {
	c, err := circuit.RandomCircuit(32, 2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Setup(c)
	if err != nil {
		t.Fatal(err)
	}
	public, secret := field.RandVector(2), field.RandVector(2)
	honest, err := Prove(c, p, public, secret)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		linear bool
		rounds int
	}{
		{"hadamard short", false, p.gateVars - 1},
		{"hadamard long", false, p.gateVars + 1},
		{"linear short", true, p.wireVars - 1},
		{"linear long", true, p.wireVars + 1},
	} {
		forged := forgeRounds(t, c, p, public, secret, honest, tc.linear, tc.rounds)
		var buf bytes.Buffer
		if _, err := forged.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		var decoded Proof
		if _, err := decoded.ReadFrom(&buf); err != nil {
			t.Fatalf("%s: forged proof does not decode: %v", tc.name, err)
		}
		for via, pr := range map[string]*Proof{"struct": forged, "bytes": &decoded} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, via), func(t *testing.T) {
				if err := Verify(c, p, public, pr); !errors.Is(err, ErrReject) {
					t.Fatalf("got %v, want ErrReject", err)
				}
			})
		}
	}
}
