package encoder

import (
	"math/rand"
	"testing"
	"testing/quick"

	"batchzk/internal/field"
)

func mustEncoder(t testing.TB, n int) *Encoder {
	t.Helper()
	e, err := New(n, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := New(0, p); err == nil {
		t.Fatal("accepted n=0")
	}
	if _, err := New(100, p); err == nil {
		t.Fatal("accepted non-power-of-two n")
	}
	if _, err := New(8, p); err == nil {
		t.Fatal("accepted n below base size")
	}
	bad := p
	bad.BaseSize = 3
	if _, err := New(64, bad); err == nil {
		t.Fatal("accepted non-power-of-two base")
	}
	bad = p
	bad.MaxRowWeightD1 = 300
	if _, err := New(64, bad); err == nil {
		t.Fatal("accepted row weight > 255")
	}
	bad = p
	bad.MinRowWeight = 0
	if _, err := New(64, bad); err == nil {
		t.Fatal("accepted zero min row weight")
	}
}

func TestDimensions(t *testing.T) {
	e := mustEncoder(t, 256)
	if e.MessageLen() != 256 || e.CodewordLen() != 1024 {
		t.Fatalf("lens: %d/%d", e.MessageLen(), e.CodewordLen())
	}
	// 256 → 128 → 64 → 32 → 16(base): 4 stages.
	if e.NumStages() != 4 {
		t.Fatalf("stages = %d", e.NumStages())
	}
	for k, s := range e.Stages() {
		n := 256 >> k
		if s.First.InDim != n || s.First.OutDim != n/2 {
			t.Fatalf("stage %d first dims %d→%d", k, s.First.InDim, s.First.OutDim)
		}
		if s.Second.InDim != 2*n || s.Second.OutDim != n {
			t.Fatalf("stage %d second dims %d→%d", k, s.Second.InDim, s.Second.OutDim)
		}
		for _, row := range s.First.Rows {
			if len(row) == 0 || len(row) > MaxRowWeight {
				t.Fatalf("stage %d first row weight %d", k, len(row))
			}
		}
	}
	msg := field.RandVector(256)
	cw, err := e.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cw) != 1024 {
		t.Fatalf("codeword length %d", len(cw))
	}
}

func TestSystematicPrefix(t *testing.T) {
	e := mustEncoder(t, 64)
	msg := field.RandVector(64)
	cw, _ := e.Encode(msg)
	if !field.VectorEqual(cw[:64], msg) {
		t.Fatal("codeword does not start with the message")
	}
}

func TestBaseCase(t *testing.T) {
	p := DefaultParams()
	e, err := New(16, p) // equals base size: zero stages, pure repetition
	if err != nil {
		t.Fatal(err)
	}
	if e.NumStages() != 0 {
		t.Fatalf("stages = %d", e.NumStages())
	}
	msg := field.RandVector(16)
	cw, _ := e.Encode(msg)
	for i := 0; i < RateInv; i++ {
		if !field.VectorEqual(cw[i*16:(i+1)*16], msg) {
			t.Fatalf("repetition block %d mismatch", i)
		}
	}
}

// TestIterativeMatchesRecursive pins the in-place two-pass encoder
// against the recursive definition (encodeRecursive, with one Montgomery
// Mul and one Add per non-zero), both into a fresh buffer and in place
// over a message already sitting in the codeword's first quarter.
func TestIterativeMatchesRecursive(t *testing.T) {
	for _, n := range []int{16, 32, 128, 512} {
		e := mustEncoder(t, n)
		msg := field.RandVector(n)
		want := encodeRecursive(e, 0, msg)
		got, err := e.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !field.VectorEqual(got, want) {
			t.Fatalf("n=%d: iterative and recursive codewords differ", n)
		}
		inPlace := field.RandVector(e.CodewordLen()) // stale contents must not leak
		copy(inPlace, msg)
		if err := e.EncodeInto(inPlace, inPlace[:n]); err != nil {
			t.Fatal(err)
		}
		if !field.VectorEqual(inPlace, want) {
			t.Fatalf("n=%d: in-place encoding differs", n)
		}
	}
}

func TestEncodeRejectsWrongLength(t *testing.T) {
	e := mustEncoder(t, 64)
	if _, err := e.Encode(field.RandVector(32)); err == nil {
		t.Fatal("accepted short message")
	}
	if err := e.EncodeInto(make([]field.Element, 4*128), field.RandVector(128)); err == nil {
		t.Fatal("EncodeInto accepted long message")
	}
	if err := e.EncodeInto(make([]field.Element, 4*64-1), field.RandVector(64)); err == nil {
		t.Fatal("EncodeInto accepted a short codeword buffer")
	}
}

func TestLinearity(t *testing.T) {
	e := mustEncoder(t, 128)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := field.NewElement(r.Uint64())
		b := field.NewElement(r.Uint64())
		x := field.RandVector(128)
		y := field.RandVector(128)
		// encode(a·x + b·y) == a·encode(x) + b·encode(y)
		comb := make([]field.Element, 128)
		var t1, t2 field.Element
		for i := range comb {
			t1.Mul(&a, &x[i])
			t2.Mul(&b, &y[i])
			comb[i].Add(&t1, &t2)
		}
		ec, _ := e.Encode(comb)
		ex, _ := e.Encode(x)
		ey, _ := e.Encode(y)
		for i := range ec {
			t1.Mul(&a, &ex[i])
			t2.Mul(&b, &ey[i])
			t1.Add(&t1, &t2)
			if !t1.Equal(&ec[i]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismAcrossInstances(t *testing.T) {
	p := DefaultParams()
	e1, _ := New(128, p)
	e2, _ := New(128, p)
	msg := field.RandVector(128)
	c1, _ := e1.Encode(msg)
	c2, _ := e2.Encode(msg)
	if !field.VectorEqual(c1, c2) {
		t.Fatal("same seed produced different encoders")
	}
	p.Seed++
	e3, _ := New(128, p)
	c3, _ := e3.Encode(msg)
	if field.VectorEqual(c1, c3) {
		t.Fatal("different seeds produced identical encoders")
	}
}

// TestCachedEncoder: the memoized lookup must return one shared instance
// per (n, params) that encodes bit-identically to a fresh New, distinguish
// parameter sets, and propagate (not cache) construction errors.
func TestCachedEncoder(t *testing.T) {
	p := DefaultParams()
	c1, err := Cached(128, p)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Cached(128, p)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("same (n, params) returned distinct instances")
	}
	fresh, _ := New(128, p)
	msg := field.RandVector(128)
	want, _ := fresh.Encode(msg)
	got, _ := c1.Encode(msg)
	if !field.VectorEqual(want, got) {
		t.Fatal("cached encoder diverges from fresh construction")
	}
	p2 := p
	p2.Seed++
	c3, err := Cached(128, p2)
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Fatal("different params shared one cache entry")
	}
	if _, err := Cached(3, p); err == nil {
		t.Fatal("invalid length must error through the cache")
	}
	if _, err := Cached(3, p); err == nil {
		t.Fatal("error must repeat, not be cached as success")
	}
}

func TestEmpiricalDistance(t *testing.T) {
	// The code must separate distinct messages by many positions. By
	// linearity it suffices to check the weight of codewords of random
	// nonzero messages, including weight-1 messages (worst case for
	// systematic expander codes).
	e := mustEncoder(t, 128)
	minWeight := e.CodewordLen()
	for trial := 0; trial < 20; trial++ {
		msg := make([]field.Element, 128)
		msg[trial%128] = field.NewElement(uint64(trial + 1)) // weight-1 message
		cw, _ := e.Encode(msg)
		w := 0
		for i := range cw {
			if !cw[i].IsZero() {
				w++
			}
		}
		if w < minWeight {
			minWeight = w
		}
	}
	// A weight-1 message touches ≥ the expander's fan-out of positions;
	// with our densities the empirical minimum comfortably exceeds 5% of
	// the codeword length.
	if minWeight < e.CodewordLen()/20 {
		t.Fatalf("empirical min codeword weight %d of %d is too small", minWeight, e.CodewordLen())
	}
}

func TestRowLengthsAndWork(t *testing.T) {
	e := mustEncoder(t, 64)
	total := 0
	for _, s := range e.Stages() {
		lens := s.First.RowLengths()
		sum := 0
		for _, l := range lens {
			sum += int(l)
		}
		if sum != s.First.NumNonZeros() {
			t.Fatal("RowLengths inconsistent with NumNonZeros")
		}
		total += s.First.NumNonZeros() + s.Second.NumNonZeros()
	}
	if e.WorkNonZeros() != total {
		t.Fatalf("WorkNonZeros = %d, want %d", e.WorkNonZeros(), total)
	}
}

func TestWorkModelConsistency(t *testing.T) {
	// The analytic work model must track the materialized encoder: same
	// stage count, same dimensions, and non-zero totals within the
	// distribution's tolerance (both draw row weights uniformly from the
	// same bounds, so totals should agree within ~10%).
	n := 1 << 10
	params := DefaultParams()
	enc, err := New(n, params)
	if err != nil {
		t.Fatal(err)
	}
	work, err := WorkModel(n, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(work) != enc.NumStages() {
		t.Fatalf("work model has %d stages, encoder %d", len(work), enc.NumStages())
	}
	actualTotal, modelTotal := enc.WorkNonZeros(), 0
	for k, sw := range work {
		if sw.InputLen != n>>k {
			t.Fatalf("stage %d input %d, want %d", k, sw.InputLen, n>>k)
		}
		if len(sw.FirstLens) != enc.Stages()[k].First.OutDim {
			t.Fatalf("stage %d first dims differ", k)
		}
		if len(sw.SecondLens) != enc.Stages()[k].Second.OutDim {
			t.Fatalf("stage %d second dims differ", k)
		}
		modelTotal += sw.FirstNNZ + sw.SecondNNZ
	}
	ratio := float64(modelTotal) / float64(actualTotal)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("work-model total %d vs actual %d (ratio %.3f)", modelTotal, actualTotal, ratio)
	}
	if _, err := WorkModel(100, params); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, err := WorkModel(8, params); err == nil {
		t.Fatal("below-base length accepted")
	}
}

func TestMulVecValidation(t *testing.T) {
	e := mustEncoder(t, 32)
	m := e.Stages()[0].First
	if err := m.MulVecInto(make([]field.Element, m.OutDim), field.RandVector(5)); err == nil {
		t.Fatal("MulVecInto accepted wrong input length")
	}
}
