package field

import (
	"testing"
	"testing/quick"
)

func TestBatchInverseMatchesInverse(t *testing.T) {
	v := RandVector(33)
	v[7] = Element{} // a zero in the middle
	v[0] = Element{} // and at the front
	dst := make([]Element, len(v))
	BatchInverse(dst, v)
	for i := range v {
		var want Element
		want.Inverse(&v[i])
		if !dst[i].Equal(&want) {
			t.Fatalf("entry %d: batch inverse mismatch", i)
		}
	}
}

func TestBatchInverseAliased(t *testing.T) {
	v := RandVector(16)
	want := make([]Element, len(v))
	BatchInverse(want, v)
	BatchInverse(v, v) // in place
	if !VectorEqual(v, want) {
		t.Fatal("aliased batch inverse differs")
	}
}

func TestBatchInverseEdges(t *testing.T) {
	BatchInverse(nil, nil) // no-op
	all := make([]Element, 5)
	dst := make([]Element, 5)
	BatchInverse(dst, all) // all zero
	for i := range dst {
		if !dst[i].IsZero() {
			t.Fatal("inverse of zero should be zero")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	BatchInverse(make([]Element, 2), make([]Element, 3))
}

func TestBatchInverseProperty(t *testing.T) {
	f := func(a, b, c Element) bool {
		v := []Element{a, b, c}
		dst := make([]Element, 3)
		BatchInverse(dst, v)
		for i := range v {
			if v[i].IsZero() {
				if !dst[i].IsZero() {
					return false
				}
				continue
			}
			var p Element
			p.Mul(&v[i], &dst[i])
			if !p.IsOne() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBatchInverse256(b *testing.B) {
	v := RandVector(256)
	dst := make([]Element, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchInverse(dst, v)
	}
}

func TestBatchInverseWithScratchMatches(t *testing.T) {
	v := RandVector(29)
	v[0], v[13] = Element{}, Element{} // zeros pass through
	want := make([]Element, len(v))
	BatchInverse(want, v)
	dst := make([]Element, len(v))
	scratch := make([]Element, len(v))
	BatchInverseWithScratch(dst, v, scratch)
	if !VectorEqual(dst, want) {
		t.Fatal("scratch variant differs from BatchInverse")
	}
	// Oversized scratch is fine; reuse must not depend on its contents.
	big := make([]Element, 2*len(v))
	for i := range big {
		big[i] = One()
	}
	BatchInverseWithScratch(dst, v, big)
	if !VectorEqual(dst, want) {
		t.Fatal("dirty oversized scratch changed the result")
	}
}

func TestBatchInverseWithScratchShortScratchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short scratch should panic")
		}
	}()
	v := RandVector(4)
	BatchInverseWithScratch(make([]Element, 4), v, make([]Element, 3))
}

func BenchmarkBatchInverseWithScratch256(b *testing.B) {
	v := RandVector(256)
	dst := make([]Element, 256)
	scratch := make([]Element, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchInverseWithScratch(dst, v, scratch)
	}
}
