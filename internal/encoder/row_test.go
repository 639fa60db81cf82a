package encoder

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
	"unsafe"

	"batchzk/internal/field"
)

// goPath runs f with the row kernel on rowIntoGo and restores the path
// the CPU check chose.
func goPath(f func()) {
	saved := useADX
	useADX = false
	defer func() { useADX = saved }()
	f()
}

// eachPath runs f once per row-kernel path this build and CPU have: the
// assembly (when useADX holds) and the Go loop.
func eachPath(b *testing.B, f func(b *testing.B)) {
	if useADX {
		b.Run("adx", f)
	}
	b.Run("go", func(b *testing.B) { goPath(func() { f(b) }) })
}

// rowRef is the row kernel's definition: one field.Wide.MulAccSmall per
// entry.
func rowRef(row []Entry, x []field.Element) field.Wide {
	var acc field.Wide
	for _, e := range row {
		acc.MulAccSmall(e.Coeff, &x[e.Col])
	}
	return acc
}

// checkRow requires rowInto on the current path (the assembly where
// useADX holds) and on the Go path to equal the MulAccSmall sum reduced
// by ReduceWide.
func checkRow(t testing.TB, row []Entry, x []field.Element) {
	t.Helper()
	acc := rowRef(row, x)
	var got, goRes, want field.Element
	want.ReduceWide(&acc)
	rowInto(&got, row, x)
	goPath(func() { rowInto(&goRes, row, x) })
	if got != want || goRes != want {
		t.Fatalf("%d-term row: rowInto %x, Go path %x, MulAccSmall+ReduceWide %x", len(row), got, goRes, want)
	}
}

// limbsOf reads b as a big-endian integer and returns its residue mod r
// as raw limbs: the kernel reads limbs, whatever domain they are in.
func limbsOf(b []byte) field.Element {
	v := new(big.Int).SetBytes(b)
	var buf [32]byte
	v.Mod(v, field.Modulus()).FillBytes(buf[:])
	return field.Element{
		binary.BigEndian.Uint64(buf[24:]), binary.BigEndian.Uint64(buf[16:24]),
		binary.BigEndian.Uint64(buf[8:16]), binary.BigEndian.Uint64(buf[:8]),
	}
}

// rMinusOneBytes is r − 1 big-endian; rMinusOne is its limbs, the largest
// a reduced element carries.
var (
	rMinusOneBytes = new(big.Int).Sub(field.Modulus(), big.NewInt(1)).FillBytes(make([]byte, 32))
	rMinusOne      = limbsOf(rMinusOneBytes)
)

// TestRowKernelMatchesGo pins the MULX/ADX row kernel to the Go loop and
// both to MulAccSmall, at every row weight up to MaxWideTerms: all-maximal
// rows (coefficients 2⁶⁴ − 1 on entries r − 1, the accumulator's worst
// case), one column repeated w times, and random rows over entries 0, 1
// and r − 1 with repeated columns. On a CPU without ADX, or in the purego
// build, both sides are the Go loop.
func TestRowKernelMatchesGo(t *testing.T) {
	if !useADX {
		t.Log("no MULX/ADX path in this build or on this CPU: comparing Go with itself")
	}
	// The assembly reads an Entry as Col at offset 0, Coeff at 8.
	if unsafe.Sizeof(Entry{}) != 16 || unsafe.Offsetof(Entry{}.Coeff) != 8 {
		t.Fatalf("Entry layout changed: size %d, Coeff at %d", unsafe.Sizeof(Entry{}), unsafe.Offsetof(Entry{}.Coeff))
	}
	rng := rand.New(rand.NewSource(49))
	x := seededMsg(rng, 300)
	x[0], x[1], x[2] = field.Element{}, field.Element{1}, rMinusOne
	for i := 3; i < len(x); i += 7 {
		x[i] = rMinusOne
	}
	top := []field.Element{rMinusOne}
	coeffs := []uint64{^uint64(0), 1, ^uint64(0) - 1, 1 << 63}
	for w := 1; w <= field.MaxWideTerms; w++ {
		worst := make([]Entry, w)
		same := make([]Entry, w)
		random := make([]Entry, w)
		for k := range worst {
			worst[k] = Entry{Col: 0, Coeff: ^uint64(0)}
			same[k] = Entry{Col: w % 3, Coeff: coeffs[k%len(coeffs)]}
			random[k] = Entry{Col: rng.Intn(len(x)), Coeff: rng.Uint64()}
			if k%4 == 0 {
				random[k].Coeff = ^uint64(0)
			}
		}
		checkRow(t, worst, top)
		checkRow(t, same, x)
		checkRow(t, random, x)
	}
	checkRow(t, nil, x)
}

// TestRowKernelBoundsCheck: a column outside x panics on either path,
// as the Go loop's index does, rather than reading past x.
func TestRowKernelBoundsCheck(t *testing.T) {
	x := field.RandVector(8)
	for _, col := range []int{8, -1, 1 << 40} {
		row := []Entry{{Col: 3, Coeff: 5}, {Col: col, Coeff: 7}}
		for _, goOnly := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("column %d (Go path %v): no panic", col, goOnly)
					}
				}()
				var out field.Element
				if goOnly {
					goPath(func() { rowInto(&out, row, x) })
				} else {
					rowInto(&out, row, x)
				}
			}()
		}
	}
}

// FuzzRowKernel reads arbitrary bytes as a row over an x of its own: each
// 41-byte record is a coefficient, a column byte (taken mod len(x), so
// columns repeat) and an entry of x; the assembly and the Go loop must
// both equal the reduced MulAccSmall sum.
func FuzzRowKernel(f *testing.F) {
	const rec = 8 + 1 + 32
	worst := make([]byte, 0, rec*field.MaxWideTerms)
	for i := 0; i < field.MaxWideTerms; i++ {
		worst = binary.LittleEndian.AppendUint64(worst, ^uint64(0))
		worst = append(worst, byte(i))
		worst = append(worst, rMinusOneBytes...)
	}
	f.Add(worst)
	f.Add(make([]byte, rec))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var row []Entry
		var x []field.Element
		cols := []byte{}
		for len(data) >= rec && len(row) < field.MaxWideTerms {
			x = append(x, limbsOf(data[9:rec]))
			row = append(row, Entry{Coeff: binary.LittleEndian.Uint64(data)})
			cols = append(cols, data[8])
			data = data[rec:]
		}
		for k := range row {
			row[k].Col = int(cols[k]) % len(x)
		}
		checkRow(t, row, x)
	})
}

// BenchmarkRowKernel is one 18-term row (the densest a default-parameter
// Second matrix samples): its wide accumulation and its reduction.
func BenchmarkRowKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := seededMsg(rng, 1024)
	row := make([]Entry, 18)
	for k := range row {
		row[k] = Entry{Col: rng.Intn(len(x)), Coeff: rng.Uint64() | 1}
	}
	eachPath(b, func(b *testing.B) {
		var out field.Element
		for i := 0; i < b.N; i++ {
			rowInto(&out, row, x)
		}
	})
}
