package protocol

import (
	"errors"
	"slices"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/pcs"
	"batchzk/internal/sha2"
)

// TestVerifyRejectsOpeningMutations is the mutation harness over the
// opening's fields: every sibling digest, every value and index of every
// opened column, and the lengths of both lists. Each mutated proof also
// survives an encode/decode round trip, so the check covers the wire
// form, and Verify must reject every one.
func TestVerifyRejectsOpeningMutations(t *testing.T) {
	c, p, public, proof := proofForTest(t, 256)
	if err := Verify(c, p, public, proof); err != nil {
		t.Fatal(err)
	}
	open := proof.PCSProof.Opening
	mutants := 0
	reject := func(name string, o pcs.Opening) {
		t.Helper()
		mutants++
		bad := *proof
		pcsProof := *proof.PCSProof
		pcsProof.Opening = o
		bad.PCSProof = &pcsProof
		data, err := bad.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back Proof
		if err := back.UnmarshalBinary(data); err != nil {
			return // refused on decode: rejected
		}
		if err := Verify(c, p, public, &back); !errors.Is(err, ErrReject) {
			t.Errorf("%s: verify returned %v", name, err)
		}
	}
	cols := func() []pcs.OpenedColumn { return slices.Clone(open.Columns) }
	sibs := func() []sha2.Digest { return slices.Clone(open.Siblings) }
	one := field.One()

	for k, col := range open.Columns {
		for i := range p.PCS.NumRows {
			c := cols()
			v := make([]field.Element, p.PCS.NumRows)
			copy(v, col.Values)
			v[i].Add(&v[i], &one)
			c[k].Values = v
			reject("column value", pcs.Opening{Columns: c, Siblings: open.Siblings})
		}
		for _, delta := range []int{-1, 1, 1 << 20} {
			c := cols()
			c[k].Index = max(c[k].Index+delta, 0)
			if c[k].Index != col.Index {
				reject("column index", pcs.Opening{Columns: c, Siblings: open.Siblings})
			}
		}
	}
	for s := range open.Siblings {
		sb := sibs()
		sb[s][s%sha2.Size] ^= 0x80
		reject("sibling digest", pcs.Opening{Columns: open.Columns, Siblings: sb})
	}
	n, m := len(open.Columns), len(open.Siblings)
	extra := open.Columns[n-1]
	extra.Index = (extra.Index + 1) % (4 * p.PCS.NumCols)
	for name, o := range map[string]pcs.Opening{
		"first column dropped":  {Columns: open.Columns[1:], Siblings: open.Siblings},
		"last column dropped":   {Columns: open.Columns[:n-1], Siblings: open.Siblings},
		"column repeated":       {Columns: append(cols(), open.Columns[n-1]), Siblings: open.Siblings},
		"column added":          {Columns: append(cols(), extra), Siblings: open.Siblings},
		"no columns":            {Siblings: open.Siblings},
		"last sibling dropped":  {Columns: open.Columns, Siblings: open.Siblings[:m-1]},
		"first sibling dropped": {Columns: open.Columns, Siblings: open.Siblings[1:]},
		"sibling repeated":      {Columns: open.Columns, Siblings: append(sibs(), open.Siblings[m-1])},
		"no siblings":           {Columns: open.Columns},
	} {
		reject(name, o)
	}
	t.Logf("%d mutants of %d columns × %d rows and %d siblings, all rejected", mutants, n, p.PCS.NumRows, m)
}
