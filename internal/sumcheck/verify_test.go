package sumcheck

import (
	"errors"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

// forge returns n rounds of degree-d round values that pass every round
// check of verify under fiatShamir(transcript.New("fuzz"), "fuzz", n):
// vals as given, except each round's value at 1, which is set to the
// round's expected sum minus its value at 0.
func forge(claim field.Element, d, n int, vals []field.Element) []field.Element {
	next := fiatShamir(transcript.New("fuzz"), "fuzz", n)
	msgs := append([]field.Element(nil), vals...)
	expected := claim
	for i := 0; i < n; i++ {
		msg := msgs[i*(d+1) : (i+1)*(d+1)]
		msg[1].Sub(&expected, &msg[0])
		r := next(i, msg)
		expected = poly.InterpolateEvalAt(msg, &r)
	}
	return msgs
}

// FuzzVerify: for any degree, expected round count, sent round count and
// round values, the verifier never panics and fails only with ErrReject.
// It accepts a proof made consistent by forge exactly when its round
// count is the expected one, and rejects raw values (but the empty proof
// of an expected zero rounds) and forged values with one changed in a
// round other than the last.
func FuzzVerify(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(3), uint8(0), uint16(0), []byte("seed"))
	f.Add(uint8(1), uint8(4), uint8(5), uint8(1), uint16(7), []byte{1, 2, 3})
	f.Add(uint8(2), uint8(2), uint8(1), uint8(2), uint16(3), []byte{})
	f.Add(uint8(2), uint8(6), uint8(6), uint8(2), uint16(2), []byte{9})
	f.Fuzz(func(t *testing.T, degree, want, sent, mode uint8, at uint16, data []byte) {
		d, w, n := int(degree%3)+1, int(want%9), int(sent%9)
		vals := make([]field.Element, n*(d+1)+1)
		for i := range vals {
			vals[i].SetUint64(uint64(i) + 1)
			if len(data) > 0 {
				vals[i].SetBytesWide(append([]byte{byte(i)}, data[i%len(data):]...))
			}
		}
		claim, msgs := vals[0], vals[1:]
		forged := mode%3 != 0
		if forged {
			msgs = forge(claim, d, n, msgs)
		}
		changed := -1
		if mode%3 == 2 && n > 0 {
			changed = int(at) % len(msgs)
			one := field.One()
			msgs[changed].Add(&msgs[changed], &one)
		}
		_, _, err := verify(claim, d, w, msgs, fiatShamir(transcript.New("fuzz"), "fuzz", w))
		if err != nil && !errors.Is(err, ErrReject) {
			t.Fatalf("error %v does not wrap ErrReject", err)
		}
		// A changed value at 2 or above in the last round shifts only the
		// final value, which the caller checks; any other change breaks
		// the sum of the same or the next round.
		lastRoundTail := changed >= 0 && changed/(d+1) == n-1 && changed%(d+1) >= 2
		switch {
		case w != n && err == nil:
			t.Fatalf("%d rounds accepted, want %d", n, w)
		case w == n && forged && changed < 0 && err != nil:
			t.Fatalf("consistent proof rejected: %v", err)
		case w == n && !forged && n > 0 && err == nil:
			t.Fatal("raw values accepted")
		case w == n && changed >= 0 && !lastRoundTail && err == nil:
			t.Fatalf("value %d changed, yet accepted", changed)
		}
	})
}

// mutant is one variant's verifier in the round values' terms: it checks
// values laid end to end as a proof of the variant, runs the verifier
// expecting n rounds, and settles the final value against the tables.
type mutant struct {
	name   string
	d      int
	values []field.Element
	check  func(values []field.Element) error
}

var errFinal = errors.New("final check failed")

// settle turns a verifier's result into its verdict: err, or errFinal if
// the final value is not want(point).
func settle(point []field.Element, final field.Element, err error, want func([]field.Element) field.Element) error {
	if err != nil {
		return err
	}
	if got := want(point); !got.Equal(&final) {
		return errFinal
	}
	return nil
}

func mutants(t *testing.T, n int) []mutant {
	t.Helper()
	ms := seededTables(9, 3, n)
	eval := func(i int, point []field.Element) field.Element {
		v, err := ms[i].Evaluate(point)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	prod := func(point []field.Element, tables ...int) field.Element {
		p := field.One()
		for _, i := range tables {
			v := eval(i, point)
			p.Mul(&p, &v)
		}
		return p
	}
	plain := func(values []field.Element) *Proof {
		p := &Proof{Rounds: make([]RoundPair, len(values)/2)}
		for i := range p.Rounds {
			p.Rounds[i] = RoundPair{P1: values[2*i], P2: values[2*i+1]}
		}
		return p
	}
	rs := seededTables(10, 1, n)[0].Evals()[:n]
	var out []mutant

	pp, _, claim := Prove(ms[0], transcript.New("mut"))
	out = append(out, mutant{"plain", 1, pp.values(), func(values []field.Element) error {
		pt, final, err := Verify(n, claim, plain(values), transcript.New("mut"))
		return settle(pt, final, err, func(pt []field.Element) field.Element { return eval(0, pt) })
	}})

	cp, _, err := ProveWithChallenges(ms[0], rs)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, mutant{"challenges", 1, cp.values(), func(values []field.Element) error {
		final, err := VerifyChallenges(claim, plain(values), rs)
		return settle(reversed(rs), final, err, func(pt []field.Element) field.Element { return eval(0, pt) })
	}})

	qp, _, qclaim, _, err := ProveProduct(ms[0], ms[1], transcript.New("mut"))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, mutant{"product", 2, qp.values(), func(values []field.Element) error {
		pt, final, err := VerifyProduct(n, qclaim, productProof(values), transcript.New("mut"))
		return settle(pt, final, err, func(pt []field.Element) field.Element { return prod(pt, 0, 1) })
	}})

	tp, _, tclaim, _, err := ProveTriple(ms[0], ms[1], ms[2], transcript.New("mut"))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, mutant{"triple", 3, tp.values(), func(values []field.Element) error {
		proof := &TripleProof{Rounds: make([]TripleRound, len(values)/4)}
		for i := range proof.Rounds {
			copy(proof.Rounds[i].At[:], values[4*i:])
		}
		pt, final, err := VerifyTriple(n, tclaim, proof, transcript.New("mut"))
		return settle(pt, final, err, func(pt []field.Element) field.Element { return prod(pt, 0, 1, 2) })
	}})

	var aclaim, tmp field.Element
	for b := range ms[0].Evals() {
		tmp.Mul(&ms[0].Evals()[b], &ms[1].Evals()[b])
		aclaim.Add(&aclaim, &tmp)
		aclaim.Add(&aclaim, &ms[2].Evals()[b])
	}
	ap, _, _, err := ProveAffineProduct(ms[0], ms[1], ms[2], aclaim, transcript.New("mut"))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, mutant{"affine", 2, ap.values(), func(values []field.Element) error {
		pt, final, err := VerifyAffineProduct(n, aclaim, productProof(values), transcript.New("mut"))
		return settle(pt, final, err, func(pt []field.Element) field.Element {
			v, c := prod(pt, 0, 1), eval(2, pt)
			v.Add(&v, &c)
			return v
		})
	}})
	return out
}

// TestVerifyRejectsEveryMutation: for every variant, an honest proof
// passes; changing any one sent value, or dropping or repeating a round,
// fails with ErrReject or at the final check.
func TestVerifyRejectsEveryMutation(t *testing.T) {
	const n = 4
	one := field.One()
	for _, m := range mutants(t, n) {
		if err := m.check(m.values); err != nil {
			t.Fatalf("%s: honest proof: %v", m.name, err)
		}
		for i := range m.values {
			values := append([]field.Element(nil), m.values...)
			values[i].Add(&values[i], &one)
			if err := m.check(values); !errors.Is(err, ErrReject) && err != errFinal {
				t.Fatalf("%s: value %d changed: got %v", m.name, i, err)
			}
		}
		w := m.d + 1
		for _, values := range [][]field.Element{
			m.values[:len(m.values)-w],
			append(append([]field.Element(nil), m.values...), m.values[len(m.values)-w:]...),
		} {
			if err := m.check(values); !errors.Is(err, ErrReject) {
				t.Fatalf("%s: %d rounds for %d: got %v, want ErrReject", m.name, len(values)/w, n, err)
			}
		}
	}
}
