package transcript

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/sha2"
)

func TestDeterminism(t *testing.T) {
	mk := func() []field.Element {
		tr := New("test")
		tr.AppendBytes("msg", []byte("hello"))
		e := field.NewElement(42)
		tr.AppendElement("e", &e)
		tr.AppendUint64("n", 7)
		return tr.ChallengeElements("c", 3)
	}
	a, b := mk(), mk()
	if !field.VectorEqual(a, b) {
		t.Fatal("identical transcripts diverged")
	}
}

func TestDomainSeparation(t *testing.T) {
	t1 := New("proto-a")
	t2 := New("proto-b")
	c1 := t1.ChallengeElement("x")
	c2 := t2.ChallengeElement("x")
	if c1.Equal(&c2) {
		t.Fatal("different domains produced the same challenge")
	}
}

func TestOrderSensitivity(t *testing.T) {
	t1 := New("t")
	t1.AppendBytes("a", []byte{1})
	t1.AppendBytes("b", []byte{2})
	t2 := New("t")
	t2.AppendBytes("b", []byte{2})
	t2.AppendBytes("a", []byte{1})
	c1 := t1.ChallengeElement("x")
	c2 := t2.ChallengeElement("x")
	if c1.Equal(&c2) {
		t.Fatal("transcript is not order-sensitive")
	}
}

func TestLabelAndDataBoundaries(t *testing.T) {
	// ("ab", "c") must differ from ("a", "bc") — length prefixing.
	t1 := New("t")
	t1.AppendBytes("ab", []byte("c"))
	t2 := New("t")
	t2.AppendBytes("a", []byte("bc"))
	c1 := t1.ChallengeElement("x")
	c2 := t2.ChallengeElement("x")
	if c1.Equal(&c2) {
		t.Fatal("label/data boundary is ambiguous")
	}
}

func TestChallengesAdvanceState(t *testing.T) {
	tr := New("t")
	c1 := tr.ChallengeElement("x")
	c2 := tr.ChallengeElement("x")
	if c1.Equal(&c2) {
		t.Fatal("successive challenges repeated")
	}
	cs := tr.ChallengeElements("y", 4)
	seen := map[string]bool{}
	for _, c := range cs {
		s := c.String()
		if seen[s] {
			t.Fatal("duplicate challenge in batch")
		}
		seen[s] = true
	}
}

func TestChallengeIndices(t *testing.T) {
	tr := New("t")
	idx := tr.ChallengeIndices("cols", 100, 37)
	if len(idx) != 100 {
		t.Fatalf("got %d indices", len(idx))
	}
	for _, i := range idx {
		if i < 0 || i >= 37 {
			t.Fatalf("index %d out of range", i)
		}
	}
	if got := tr.ChallengeIndices("z", 5, 0); got != nil {
		t.Fatal("bound 0 should give nil")
	}
	// Distribution smoke test: over 100 draws from 37 buckets we should
	// see a reasonable spread.
	distinct := map[int]bool{}
	for _, i := range idx {
		distinct[i] = true
	}
	if len(distinct) < 20 {
		t.Fatalf("suspiciously few distinct indices: %d", len(distinct))
	}
}

func TestAppendVariants(t *testing.T) {
	tr1 := New("t")
	tr1.AppendDigest("d", sha2.Sum256([]byte("x")))
	tr2 := New("t")
	tr2.AppendDigest("d", sha2.Sum256([]byte("y")))
	c1 := tr1.ChallengeElement("c")
	c2 := tr2.ChallengeElement("c")
	if c1.Equal(&c2) {
		t.Fatal("digest content ignored")
	}

	es := []field.Element{field.NewElement(1), field.NewElement(2)}
	tr3 := New("t")
	tr3.AppendElements("v", es)
	tr4 := New("t")
	tr4.AppendElements("v", es[:1])
	c3 := tr3.ChallengeElement("c")
	c4 := tr4.ChallengeElement("c")
	if c3.Equal(&c4) {
		t.Fatal("element vector content ignored")
	}
}

// The byte layout of every absorb and squeeze, spelled out against
// crypto/sha256: proofs made by earlier builds must keep verifying, so the
// layout may not drift when the hashing underneath is reworked.
func TestAbsorbAndSqueezeLayout(t *testing.T) {
	be64 := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	hash := func(parts ...[]byte) []byte {
		d := sha256.Sum256(bytes.Join(parts, nil))
		return d[:]
	}
	absorb := func(state []byte, label string, data []byte) []byte {
		return hash(state, be64(uint64(len(label))), []byte(label), be64(uint64(len(data))), data)
	}

	es := field.RandVector(70) // longer than anything appended before it
	tr := New("layout")
	tr.AppendUint64("n", 9)
	tr.AppendElements("v", es)
	got := tr.ChallengeElements("c", 2)

	state := hash([]byte("batchzk/v1/layout"))
	state = absorb(state, "n", be64(9))
	var enc []byte
	for i := range es {
		b := es[i].ToBytes()
		enc = append(enc, b[:]...)
	}
	state = absorb(state, "v", hash(enc))
	state = absorb(state, "challenge/c", nil)
	for i := range got {
		wide := append(hash(state, be64(uint64(2*i)))[:24], hash(state, be64(uint64(2*i+1)))[:24]...)
		var want field.Element
		want.SetBytesWide(wide)
		if !got[i].Equal(&want) {
			t.Fatalf("challenge %d does not follow the documented layout", i)
		}
	}
}

// A proof absorbs a few hundred messages; none may allocate once the
// transcript's buffer has grown to the longest of them.
func TestAbsorbDoesNotAllocate(t *testing.T) {
	tr := New("allocs")
	es := field.RandVector(64)
	d := sha2.Sum256([]byte("root"))
	step := func() {
		tr.AppendElements("row", es)
		tr.AppendElement("e", &es[0])
		tr.AppendDigest("root", d)
		tr.AppendUint64("n", 3)
		_ = tr.squeeze()
	}
	step()
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Fatalf("absorb/squeeze allocate %.0f times per round", n)
	}
}
