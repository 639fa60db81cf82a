package sha2

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"math/rand"
	"testing"
	"testing/quick"
)

// The hand-written SHA-256 below is the differential oracle: the package
// used to be built on it, and everything the package now gets from
// crypto/sha256 — above all the raw compression read out of a marshalled
// state — is checked against it.

// iv is the SHA-256 initial hash value (FIPS 180-4 §5.3.3).
var iv = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// k holds the SHA-256 round constants.
var k = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

func rotr(x uint32, n uint) uint32 { return x>>n | x<<(32-n) }

// compressBlock runs the 64 SHA-256 rounds over one 512-bit block, updating
// the eight working state words h in place. The sixteen message chunks live
// in the w schedule array — the structure the paper maps onto GPU registers.
func compressBlock(h *[8]uint32, block *[BlockSize]byte) {
	var w [64]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(block[i*4:])
	}
	for i := 16; i < 64; i++ {
		s0 := rotr(w[i-15], 7) ^ rotr(w[i-15], 18) ^ w[i-15]>>3
		s1 := rotr(w[i-2], 17) ^ rotr(w[i-2], 19) ^ w[i-2]>>10
		w[i] = w[i-16] + s0 + w[i-7] + s1
	}

	a, b, c, d, e, f, g, hh := h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]
	for i := 0; i < 64; i++ {
		s1 := rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)
		ch := e&f ^ ^e&g
		t1 := hh + s1 + ch + k[i] + w[i]
		s0 := rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)
		maj := a&b ^ a&c ^ b&c
		t2 := s0 + maj
		hh, g, f, e, d, c, b, a = g, f, e, d+t1, c, b, a, t1+t2
	}
	h[0] += a
	h[1] += b
	h[2] += c
	h[3] += d
	h[4] += e
	h[5] += f
	h[6] += g
	h[7] += hh
}

func digestOf(h *[8]uint32) (d Digest) {
	for i, v := range h {
		binary.BigEndian.PutUint32(d[i*4:], v)
	}
	return d
}

// oracleCompress is Compress on the hand-written round function.
func oracleCompress(block *[BlockSize]byte) Digest {
	h := iv
	compressBlock(&h, block)
	return digestOf(&h)
}

// oracleSum256 is the padded, length-strengthened hash on the hand-written
// round function.
func oracleSum256(data []byte) Digest {
	h := iv
	var block [BlockSize]byte
	full := len(data) / BlockSize
	for i := 0; i < full; i++ {
		copy(block[:], data[i*BlockSize:])
		compressBlock(&h, &block)
	}
	// Padding: 0x80, zeros, 64-bit big-endian bit length.
	var pad [2 * BlockSize]byte
	n := copy(pad[:], data[full*BlockSize:])
	pad[n] = 0x80
	padLen := BlockSize
	if n+1+8 > BlockSize {
		padLen = 2 * BlockSize
	}
	binary.BigEndian.PutUint64(pad[padLen-8:], uint64(len(data))*8)
	for off := 0; off < padLen; off += BlockSize {
		copy(block[:], pad[off:])
		compressBlock(&h, &block)
	}
	return digestOf(&h)
}

// checkAgainstOracles runs every entry point over data and compares it
// with the hand-written oracle and with crypto/sha256. splits cuts data
// into the pieces the Hasher is fed (each entry is a piece length modulo
// what is left; the tail goes in one last Write).
func checkAgainstOracles(t *testing.T, data []byte, splits []byte) {
	t.Helper()
	want := oracleSum256(data)
	if std := Digest(sha256.Sum256(data)); std != want {
		t.Fatalf("oracle disagrees with crypto/sha256 on %d bytes", len(data))
	}
	if got := Sum256(data); got != want {
		t.Fatalf("Sum256 mismatch on %d bytes", len(data))
	}

	var h Hasher // zero value, never Reset
	rest := data
	for _, s := range splits {
		n := int(s) % (len(rest) + 1)
		h.Write(rest[:n])
		rest = rest[n:]
		if mid := h.Sum(); mid != oracleSum256(data[:len(data)-len(rest)]) {
			t.Fatalf("Hasher prefix digest mismatch at %d of %d bytes", len(data)-len(rest), len(data))
		}
	}
	h.Write(rest)
	if got := h.Sum(); got != want {
		t.Fatalf("Hasher mismatch on %d bytes under splits %v", len(data), splits)
	}
	h.Reset()
	if got := h.Sum(); got != oracleSum256(nil) {
		t.Fatalf("Reset did not restore the empty hash")
	}

	// Every 64-byte window start is a raw-compression input.
	for off := 0; off+BlockSize <= len(data); off += BlockSize {
		block := (*[BlockSize]byte)(data[off : off+BlockSize])
		wantC := oracleCompress(block)
		if got := Compress(block); got != wantC {
			t.Fatalf("Compress mismatch at offset %d", off)
		}
		l, r := Digest(block[:Size]), Digest(block[Size:])
		if got := Compress2(&l, &r); got != wantC {
			t.Fatalf("Compress2 mismatch at offset %d", off)
		}
	}
}

func TestMatchesOracles(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("abc"),
		[]byte("The quick brown fox jumps over the lazy dog"),
		bytes.Repeat([]byte{0xaa}, 55), // padding fits in one block
		bytes.Repeat([]byte{0xbb}, 56), // padding spills to a second block
		bytes.Repeat([]byte{0xcc}, 63),
		bytes.Repeat([]byte{0xdd}, 64),
		bytes.Repeat([]byte{0xee}, 65),
		bytes.Repeat([]byte{0x11}, 1000),
	}
	for _, c := range cases {
		checkAgainstOracles(t, c, []byte{1, 63, 64, 65, 7})
	}
	f := func(data, splits []byte) bool {
		checkAgainstOracles(t, data, splits)
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func FuzzAgainstOracles(f *testing.F) {
	f.Add([]byte("abc"), []byte{1})
	f.Add(bytes.Repeat([]byte{0x5a}, 3*BlockSize+9), []byte{64, 0, 1, 200})
	f.Fuzz(func(t *testing.T, data, splits []byte) {
		if len(splits) > 16 {
			splits = splits[:16] // each split re-hashes a prefix with the oracle
		}
		checkAgainstOracles(t, data, splits)
	})
}

func TestHasherContinuesAfterSum(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	data := make([]byte, 3000)
	r.Read(data)
	var h Hasher
	h.Write(data)
	if got, want := h.Sum(), oracleSum256(data); got != want {
		t.Fatalf("Hasher digest mismatch")
	}
	// Sum must not consume the state.
	h.Write([]byte("more"))
	want := oracleSum256(append(append([]byte{}, data...), []byte("more")...))
	if got := h.Sum(); got != want {
		t.Fatalf("Hasher continuation mismatch")
	}
}

// A slice of zero Hashers is how the streaming committer keeps one running
// state per column: each element must hash independently of its neighbours,
// with or without a Reset first.
func TestHasherSliceElementsAreIndependent(t *testing.T) {
	hs := make([]Hasher, 5)
	hs[3].Reset()
	for round := 0; round < 3; round++ {
		for j := range hs {
			hs[j].Write([]byte{byte(j), byte(round)})
		}
	}
	for j := range hs {
		want := oracleSum256([]byte{byte(j), 0, byte(j), 1, byte(j), 2})
		if got := hs[j].Sum(); got != want {
			t.Fatalf("hasher %d of the slice mismatches", j)
		}
	}
}

func TestCompressIsRawCompression(t *testing.T) {
	var block [BlockSize]byte
	for i := range block {
		block[i] = byte(i)
	}
	d1 := Compress(&block)
	if d1 != oracleCompress(&block) {
		t.Fatalf("Compress != hand-written compression")
	}
	if d1 == Sum256(block[:]) {
		t.Fatalf("Compress should not include padding/length strengthening")
	}
	// Flipping one input bit must change the digest (sanity avalanche check).
	block[0] ^= 1
	if Compress(&block) == d1 {
		t.Fatalf("Compress ignored an input bit")
	}
}

func TestCompress2(t *testing.T) {
	var l, r Digest
	for i := range l {
		l[i] = byte(i)
		r[i] = byte(255 - i)
	}
	got := Compress2(&l, &r)
	var block [BlockSize]byte
	copy(block[:32], l[:])
	copy(block[32:], r[:])
	if want := oracleCompress(&block); got != want {
		t.Fatalf("Compress2 != compression of l‖r")
	}
	if Compress2(&l, &r) == Compress2(&r, &l) {
		t.Fatalf("Compress2 should be order-sensitive")
	}
}

// marshalOnly hides a digest's AppendBinary, leaving what toolchains
// before encoding.BinaryAppender offer.
type marshalOnly struct{ hash.Hash }

func (m marshalOnly) MarshalBinary() ([]byte, error) {
	return m.Hash.(encoding.BinaryMarshaler).MarshalBinary()
}

func TestCompressWithoutBinaryAppender(t *testing.T) {
	c := &compressor{h: marshalOnly{sha256.New()}}
	for i := range c.block {
		c.block[i] = byte(3 * i)
	}
	for rep := 0; rep < 2; rep++ { // the digest is reused across calls
		if got, want := c.compress(), oracleCompress(&c.block); got != want {
			t.Fatalf("MarshalBinary path mismatches the oracle")
		}
		c.block[rep] ^= 0xff
	}
}

// The hot loops call these per node, per column and per transcript message;
// none of them may allocate in steady state. Compress is gated below its
// sync.Pool and only without the race detector, which makes the pool drop
// entries at random and turns off the compiler's append-of-make rewrite
// that keeps crypto/sha256's AppendBinary off the heap.
func TestHashingDoesNotAllocate(t *testing.T) {
	data := make([]byte, 1024)
	h := new(Hasher)
	gates := map[string]func(){
		"Sum256": func() { allocSink = Sum256(data) },
		"Hasher": func() { h.Reset(); h.Write(data); allocSink = h.Sum() },
	}
	if !raceDetector {
		c := &compressor{h: sha256.New()}
		gates["compress"] = func() { allocSink = c.compress() }
	}
	for name, f := range gates {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.0f times per call", name, n)
		}
	}
}

// allocSink keeps the gated calls' results alive.
var allocSink Digest

func BenchmarkCompress(b *testing.B) {
	var block [BlockSize]byte
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		block[0] = byte(i)
		_ = Compress(&block)
	}
}

// BenchmarkCompressPortable is the retired pure-Go round function, kept as
// the reference Compress's marshalled-state route has to beat.
func BenchmarkCompressPortable(b *testing.B) {
	var block [BlockSize]byte
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		block[0] = byte(i)
		_ = oracleCompress(&block)
	}
}

func BenchmarkSum256_1KiB(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		_ = Sum256(data)
	}
}

// BenchmarkCompress2 measures the interior-node hash — the unit cost the
// Merkle module's 2N−1 compression budget is priced in.
func BenchmarkCompress2(b *testing.B) {
	var l, r Digest
	for i := range l {
		l[i] = byte(i)
		r[i] = byte(255 - i)
	}
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		l = Compress2(&l, &r)
	}
}
