package protocol

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
)

func proofForTest(t testing.TB, gates int) (*circuit.Circuit, *Params, []field.Element, *Proof) {
	t.Helper()
	c, err := circuit.RandomCircuit(gates, 2, 2, int64(gates))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Setup(c)
	if err != nil {
		t.Fatal(err)
	}
	public := field.RandVector(2)
	proof, err := Prove(c, p, public, field.RandVector(2))
	if err != nil {
		t.Fatal(err)
	}
	return c, p, public, proof
}

func TestProofSerializationRoundTrip(t *testing.T) {
	c, p, public, proof := proofForTest(t, 64)
	data, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Proof
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	// The deserialized proof must verify.
	if err := Verify(c, p, public, &back); err != nil {
		t.Fatalf("deserialized proof rejected: %v", err)
	}
	// Re-serialization is stable.
	data2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("serialization is not canonical")
	}
	// Size is computed without serializing; it must be the exact length,
	// which MarshalBinary allocates up front, and WriteTo writes the same.
	if n, err := proof.Size(); err != nil || n != len(data) || cap(data) != len(data) {
		t.Fatalf("Size() = %d, %v; MarshalBinary gave %d bytes in a %d-byte buffer", n, err, len(data), cap(data))
	}
	var buf bytes.Buffer
	if n, err := proof.WriteTo(&buf); err != nil || n != int64(len(data)) || !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("WriteTo wrote %d bytes (%v), not the MarshalBinary bytes", n, err)
	}
}

func TestProofDeserializationRejections(t *testing.T) {
	_, _, _, proof := proofForTest(t, 32)
	data, _ := proof.MarshalBinary()

	var p Proof
	// Truncations at many offsets.
	for _, cut := range []int{0, 3, 4, 10, len(data) / 2, len(data) - 1} {
		if err := p.UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
	// Bad magic.
	bad := append([]byte{}, data...)
	bad[0] = 'X'
	if err := p.UnmarshalBinary(bad); err == nil {
		t.Fatal("accepted bad magic")
	}
	// Trailing garbage.
	if err := p.UnmarshalBinary(append(append([]byte{}, data...), 0x00)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
	// Corrupt a length field into a huge value.
	bad = append([]byte{}, data...)
	copy(bad[4+32:], []byte{0xff, 0xff, 0xff, 0x7f})
	if err := p.UnmarshalBinary(bad); err == nil {
		t.Fatal("accepted oversized length")
	}
	// Incomplete proof cannot be serialized.
	incomplete := &Proof{}
	if _, err := incomplete.MarshalBinary(); err == nil {
		t.Fatal("serialized an incomplete proof")
	}
}

// Every length field claims its entries before they are read. A short
// input claiming maxLen entries in any one of them must fail as a
// truncation without allocating for the claim. The opening's two lists
// are bounded tighter, by what the layout implies: more than maxColumns
// columns, or more than TreeDepth siblings per column, fail before a
// single entry is read.
func TestProofDecodeBoundsAllocation(t *testing.T) {
	zero := make([]byte, 32) // an all-zero digest, or the canonical zero element
	u32 := func(v int) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(v)) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// Well-formed prefixes, each ending just before one length field. One
	// row and one column: the column tree has RateInv = 4 leaves, depth 2.
	head := cat(proofMagic[:], zero, u32(1), u32(1)) // magic, root, rows, cols
	outputs := cat(head, u32(0), zero)               // + outputs, o_tau
	hadamard := cat(outputs, u32(0), zero, zero)     // + rounds, l_rho, r_rho
	linear := cat(hadamard, u32(0), zero)            // + rounds, w_sigma
	rows := cat(linear, u32(0), u32(0))              // + test row, combined row
	column := cat(rows, u32(1), u32(0))              // + one column, its index
	columns := cat(column, u32(1), zero)             // + its one value

	var empty Proof
	if err := empty.UnmarshalBinary(cat(rows, u32(0), u32(0))); err != nil {
		t.Fatalf("prefixes are malformed: a column-free proof fails with %v", err)
	}
	if err := empty.UnmarshalBinary(cat(columns, u32(2), zero, zero)); err != nil {
		t.Fatalf("prefixes are malformed: a one-column proof fails with %v", err)
	}
	cases := map[string]struct {
		data []byte
		want string
	}{
		"outputs":               {cat(head, u32(maxLen)), "truncated"},
		"hadamard rounds":       {cat(outputs, u32(maxLen)), "truncated"},
		"linear rounds":         {cat(hadamard, u32(maxLen)), "truncated"},
		"test row":              {cat(linear, u32(maxLen)), "truncated"},
		"combined row":          {cat(linear, u32(0), u32(maxLen)), "truncated"},
		"columns":               {cat(rows, u32(maxColumns)), "truncated"},
		"column values":         {cat(column, u32(maxLen)), "truncated"},
		"siblings":              {cat(columns, u32(2)), "truncated"},
		"columns over t":        {cat(rows, u32(maxColumns+1)), "at most"},
		"siblings over t·depth": {cat(columns, u32(3)), "at most"},
		"siblings at maxLen":    {cat(columns, u32(maxLen)), "at most"},
	}
	for name, tc := range cases {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var p Proof
		err := p.UnmarshalBinary(tc.data)
		runtime.ReadMemStats(&ms)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %d-byte input: err %v, want %q", name, len(tc.data), err, tc.want)
		}
		if d := ms.TotalAlloc - before; d >= 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", name, len(tc.data), d)
		}
	}
}

// TestRetiredFormatNamedInError: a proof in the BZK1 format (one Merkle
// path per column) is refused by name, with a request to re-prove.
func TestRetiredFormatNamedInError(t *testing.T) {
	_, _, _, proof := proofForTest(t, 8)
	data, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("BZK2")) {
		t.Fatalf("proof starts %q, want the BZK2 magic", data[:4])
	}
	copy(data, "BZK1")
	var back Proof
	err = back.UnmarshalBinary(data)
	if err == nil || !strings.Contains(err.Error(), `"BZK1"`) || !strings.Contains(err.Error(), "re-prove") {
		t.Fatalf("BZK1 proof: err %v, want one naming BZK1 and asking for a re-prove", err)
	}
}

func TestCorruptedProofFailsVerification(t *testing.T) {
	c, p, public, proof := proofForTest(t, 64)
	data, _ := proof.MarshalBinary()
	// Flip one byte inside the PCS column region (last third) — the proof
	// must either fail to parse (non-canonical element) or fail to verify.
	bad := append([]byte{}, data...)
	bad[len(bad)*2/3] ^= 0x01
	var back Proof
	if err := back.UnmarshalBinary(bad); err == nil {
		if err := Verify(c, p, public, &back); err == nil {
			t.Fatal("corrupted proof verified")
		}
	}
}

func TestRandomBitFlipsNeverVerify(t *testing.T) {
	// Fuzz-style robustness: flipping any random bit of a serialized
	// proof must result in a parse error or a verification failure —
	// never acceptance.
	c, p, public, proof := proofForTest(t, 48)
	data, _ := proof.MarshalBinary()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		bad := append([]byte{}, data...)
		pos := rng.Intn(len(bad))
		bad[pos] ^= 1 << uint(rng.Intn(8))
		var back Proof
		if err := back.UnmarshalBinary(bad); err != nil {
			continue // parse rejection is fine
		}
		if err := Verify(c, p, public, &back); err == nil {
			t.Fatalf("trial %d: bit flip at byte %d verified", trial, pos)
		}
	}
}

func TestProofSize(t *testing.T) {
	// The paper: "the proof size of the second category is relatively
	// larger and reaches several MB". Check the scaling: opened columns
	// dominate, so size grows with the commitment's row count.
	_, _, _, small := proofForTest(t, 32)
	_, _, _, large := proofForTest(t, 2048)
	ss, err := small.Size()
	if err != nil {
		t.Fatal(err)
	}
	ls, err := large.Size()
	if err != nil {
		t.Fatal(err)
	}
	if ls <= ss {
		t.Fatalf("proof size should grow with scale: %d vs %d", ls, ss)
	}
	t.Logf("proof sizes: 32 gates → %d KiB, 2048 gates → %d KiB", ss/1024, ls/1024)
	// At 2048 gates the proof already exceeds 100 KiB; extrapolating the
	// √S column growth to the paper's 2^20 scale lands in the MB range.
	if ls < 100*1024 {
		t.Fatalf("proof unexpectedly small: %d bytes", ls)
	}
}

// TestHeldProofDropsZeroTail: the opened columns of a proof whose witness
// ends before the last committed row stop at its last nonzero row. The
// wire form still carries NumRows entries per column and decodes back to
// the same held proof, which verifies; a wire column of any other length
// is rejected.
func TestHeldProofDropsZeroTail(t *testing.T) {
	c, p, public, proof := proofForTest(t, 256)
	rows := (c.NumWires() + p.PCS.NumCols - 1) / p.PCS.NumCols
	if rows >= p.PCS.NumRows {
		t.Fatalf("witness fills all %d rows; the test needs padding rows", p.PCS.NumRows)
	}
	for k, col := range proof.PCSProof.Columns {
		if n := len(col.Values); n > rows || (n > 0 && col.Values[n-1].IsZero()) {
			t.Fatalf("column %d holds %d values for %d witness rows, or ends in a zero", k, n, rows)
		}
	}
	data, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Proof
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, proof) {
		t.Fatal("decoded proof differs from the held one")
	}
	if err := Verify(c, p, public, &back); err != nil {
		t.Fatal(err)
	}
	long := proof.PCSProof.Columns[0].Values
	proof.PCSProof.Columns[0].Values = make([]field.Element, p.PCS.NumRows+1)
	data, err = proof.MarshalBinary()
	proof.PCSProof.Columns[0].Values = long
	if err != nil {
		t.Fatal(err)
	}
	if err := back.UnmarshalBinary(data); err == nil {
		t.Fatal("accepted a column longer than the commitment's rows")
	}
}
