//go:build !purego

#include "textflag.h"

// The modulus r and the Barrett constant μ = ⌊2³³³/r⌋, little-endian,
// as field defines them (q0..q3 in field.go, mu0 and mu1 in wide.go).
DATA r<>+0(SB)/8, $0x43e1f593f0000001
DATA r<>+8(SB)/8, $0x2833e84879b97091
DATA r<>+16(SB)/8, $0xb85045b68181585d
DATA r<>+24(SB)/8, $0x30644e72e131a029
GLOBL r<>(SB), RODATA|NOPTR, $32

#define MU0 $0xe8c4c474094f560e
#define MU1 $0x000000000000a948

// func rowInto(out *field.Element, row []Entry, x []field.Element)
//
// rowIntoGo on MULX/ADCX/ADOX, one call per row. Per entry (Col, Coeff),
// with DX = Coeff and CX = &x[Col], MULX gives the four limb products
// Coeff·x[i] = (hᵢ, lᵢ) without touching the flags. The product's limbs
// (l0, h0+l1, h1+l2, h2+l3, h3) go into the accumulator
// a = (R10, R11, R12, R13, R14, BX) on two carry chains: the low halves
// and h3 on CF (ADCX) into a0..a4, the other high halves on OF (ADOX)
// into a1..a3, and both carries into a4 and a5. The sum stays below 2³³¹
// for up to 255 terms (field.MaxWideTerms), so a5 never overflows. SI
// walks the row up to DI, R8 is x's base, AX and R9 take each product's
// halves. A column outside x sends the call to rowIntoGo, which panics
// at that index.
//
// The reduction is field.Element.ReduceWide step for step (its comment
// has the bounds): q̂ = ⌊⌊a/2²⁵³⌋·μ/2⁸⁰⌋ in two limbs, a − q̂·r mod 2²⁵⁶,
// and one subtraction of r kept by CMOV, without a branch.
TEXT ·rowInto(SB), NOSPLIT, $0-56
	CMPB ·useADX(SB), $1
	JNE  fallback
	MOVQ row_base+8(FP), SI
	MOVQ row_len+16(FP), DI
	SHLQ $4, DI
	ADDQ SI, DI
	MOVQ x_base+32(FP), R8
	XORQ R10, R10
	XORQ R11, R11
	XORQ R12, R12
	XORQ R13, R13
	XORQ R14, R14
	XORQ BX, BX
	CMPQ SI, DI
	JEQ  reduce

loop:
	MOVQ  0(SI), CX
	CMPQ  CX, x_len+40(FP)
	JAE   fallback
	SHLQ  $5, CX
	ADDQ  R8, CX
	MOVQ  8(SI), DX
	XORQ  AX, AX
	MULXQ 0(CX), AX, R9
	ADCXQ AX, R10
	ADOXQ R9, R11
	MULXQ 8(CX), AX, R9
	ADCXQ AX, R11
	ADOXQ R9, R12
	MULXQ 16(CX), AX, R9
	ADCXQ AX, R12
	ADOXQ R9, R13
	MULXQ 24(CX), AX, R9
	ADCXQ AX, R13
	ADCXQ R9, R14
	MOVQ  $0, AX
	ADCXQ AX, BX
	ADOXQ AX, R14
	ADOXQ AX, BX
	ADDQ  $16, SI
	CMPQ  SI, DI
	JNE   loop

reduce:
	// A = ⌊a/2²⁵³⌋ = (SI, DI).
	MOVQ R13, SI
	SHRQ $61, SI
	MOVQ R14, AX
	SHLQ $3, AX
	ORQ  AX, SI
	MOVQ R14, DI
	SHRQ $61, DI
	SHLQ $3, BX
	ORQ  BX, DI

	// A·μ from bit 64 up: (R8, R14, SI) = (p1, p2, p3).
	MOVQ  MU0, DX
	MULXQ SI, AX, R8  // R8 = hi(A0·μ0)
	MULXQ DI, R9, CX  // (CX, R9) = A1·μ0
	MOVQ  MU1, DX
	MULXQ SI, AX, R14 // (R14, AX) = A0·μ1
	MULXQ DI, BX, SI  // (SI, BX) = A1·μ1
	ADDQ  AX, R8
	ADCQ  BX, R14
	ADCQ  $0, SI
	ADDQ  R9, R8
	ADCQ  CX, R14
	ADCQ  $0, SI

	// q̂ = ⌊p/2¹⁶⌋ = (R8, R14).
	SHRQ $16, R8
	MOVQ R14, AX
	SHLQ $48, AX
	ORQ  AX, R8
	SHRQ $16, R14
	SHLQ $48, SI
	ORQ  SI, R14

	// t = q̂·r mod 2²⁵⁶ = (DI, SI, AX, BX).
	MOVQ  R8, BX
	IMULQ r<>+24(SB), BX // lo(q̂0·r3)
	MOVQ  R14, R9
	IMULQ r<>+16(SB), R9 // lo(q̂1·r2)
	MOVQ  R8, DX
	MULXQ r<>+0(SB), DI, SI
	MULXQ r<>+8(SB), AX, CX
	ADDQ  AX, SI
	MULXQ r<>+16(SB), AX, R8
	ADCQ  CX, AX
	ADCQ  R8, BX
	MOVQ  R14, DX
	MULXQ r<>+0(SB), CX, R8
	MULXQ r<>+8(SB), R14, DX
	ADDQ  R8, R14
	ADCQ  DX, R9
	ADDQ  CX, SI
	ADCQ  R14, AX
	ADCQ  R9, BX

	// e = a − t, then e − r unless that borrows.
	SUBQ    DI, R10
	SBBQ    SI, R11
	SBBQ    AX, R12
	SBBQ    BX, R13
	MOVQ    R10, AX
	MOVQ    R11, BX
	MOVQ    R12, CX
	MOVQ    R13, DX
	SUBQ    r<>+0(SB), AX
	SBBQ    r<>+8(SB), BX
	SBBQ    r<>+16(SB), CX
	SBBQ    r<>+24(SB), DX
	CMOVQCS R10, AX
	CMOVQCS R11, BX
	CMOVQCS R12, CX
	CMOVQCS R13, DX
	MOVQ    out+0(FP), DI
	MOVQ    AX, 0(DI)
	MOVQ    BX, 8(DI)
	MOVQ    CX, 16(DI)
	MOVQ    DX, 24(DI)
	RET

fallback:
	JMP ·rowIntoGo(SB)
