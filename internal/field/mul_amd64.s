//go:build !purego

#include "textflag.h"

// Montgomery arithmetic on MULX (BMI2) and the ADCX/ADOX dual carry
// chains (ADX). It is the same fixed 4-limb "no-carry" CIOS as mulGo:
// the modulus's top limb is below 2⁶², so the accumulator never needs a
// sixth limb, and one subtract/conditional-move pass at the end gives the
// canonical representative. MULX leaves the flags alone, so the low
// halves of a row of products ride the OF chain (ADOX) while the high
// halves ride the CF chain (ADCX), with no flag spills in between.
//
// Registers: DX is MULX's implicit operand; AX and SI are scratch; the
// accumulator t is (R12, R13, R14, CX) with BX its fifth limb; y[0..3]
// sit in R8–R11 and DI points at x.

DATA q<>+0(SB)/8, $0x43e1f593f0000001
DATA q<>+8(SB)/8, $0x2833e84879b97091
DATA q<>+16(SB)/8, $0xb85045b68181585d
DATA q<>+24(SB)/8, $0x30644e72e131a029
GLOBL q<>(SB), RODATA|NOPTR, $32

// MUL_FIRST sets (R12, R13, R14, CX, BX) = DX·y.
#define MUL_FIRST \
	XORQ  AX, AX;      \
	MULXQ R8, R12, R13; \
	MULXQ R9, AX, R14; \
	ADOXQ AX, R13;     \
	MULXQ R10, AX, CX; \
	ADOXQ AX, R14;     \
	MULXQ R11, AX, BX; \
	ADOXQ AX, CX;      \
	MOVQ  $0, AX;      \
	ADOXQ AX, BX

// MUL_NEXT adds DX·y to (R12, R13, R14, CX) and sets BX to the carry
// limb: low halves on the OF chain, high halves on the CF chain.
#define MUL_NEXT \
	XORQ  AX, AX;     \
	MULXQ R8, AX, BX; \
	ADOXQ AX, R12;    \
	ADCXQ BX, R13;    \
	MULXQ R9, AX, BX; \
	ADOXQ AX, R13;    \
	ADCXQ BX, R14;    \
	MULXQ R10, AX, BX; \
	ADOXQ AX, R14;    \
	ADCXQ BX, CX;     \
	MULXQ R11, AX, BX; \
	ADOXQ AX, CX;     \
	MOVQ  $0, AX;     \
	ADCXQ AX, BX;     \
	ADOXQ AX, BX

// REDUCE_STEP sets t = (t + hi·2²⁵⁶ + m·r) / 2⁶⁴ for m = R12·(−r⁻¹) mod
// 2⁶⁴, the multiple of r that clears the low limb. hi is the fifth limb
// (BX after a product row, or AX, which is 0 by then, for a bare
// reduction).
#define REDUCE_STEP(hi) \
	MOVQ  $0xc2e1f593efffffff, DX; \
	IMULQ R12, DX;             \
	XORQ  AX, AX;              \
	MULXQ q<>+0(SB), AX, SI;   \
	ADCXQ R12, AX;             \
	MOVQ  SI, R12;             \
	ADCXQ R13, R12;            \
	MULXQ q<>+8(SB), AX, R13;  \
	ADOXQ AX, R12;             \
	ADCXQ R14, R13;            \
	MULXQ q<>+16(SB), AX, R14; \
	ADOXQ AX, R13;             \
	ADCXQ CX, R14;             \
	MULXQ q<>+24(SB), AX, CX;  \
	ADOXQ AX, R14;             \
	MOVQ  $0, AX;              \
	ADCXQ AX, CX;              \
	ADOXQ hi, CX

// STORE_REDUCED writes t − r to (DI) if that does not borrow, else t.
#define STORE_REDUCED \
	MOVQ    R12, AX;        \
	MOVQ    R13, BX;        \
	MOVQ    R14, SI;        \
	MOVQ    CX, DX;         \
	SUBQ    q<>+0(SB), AX;  \
	SBBQ    q<>+8(SB), BX;  \
	SBBQ    q<>+16(SB), SI; \
	SBBQ    q<>+24(SB), DX; \
	CMOVQCS R12, AX;        \
	CMOVQCS R13, BX;        \
	CMOVQCS R14, SI;        \
	CMOVQCS CX, DX;         \
	MOVQ    AX, 0(DI);      \
	MOVQ    BX, 8(DI);      \
	MOVQ    SI, 16(DI);     \
	MOVQ    DX, 24(DI)

// func mul(z, x, y *Element)
TEXT ·mul(SB), NOSPLIT, $0-24
	CMPB ·useADX(SB), $1
	JNE  fallback
	MOVQ x+8(FP), DI
	MOVQ y+16(FP), SI
	MOVQ 0(SI), R8
	MOVQ 8(SI), R9
	MOVQ 16(SI), R10
	MOVQ 24(SI), R11
	MOVQ 0(DI), DX
	MUL_FIRST
	REDUCE_STEP(BX)
	MOVQ 8(DI), DX
	MUL_NEXT
	REDUCE_STEP(BX)
	MOVQ 16(DI), DX
	MUL_NEXT
	REDUCE_STEP(BX)
	MOVQ 24(DI), DX
	MUL_NEXT
	REDUCE_STEP(BX)
	MOVQ z+0(FP), DI
	STORE_REDUCED
	RET

fallback:
	JMP ·mulGo(SB)

// func square(z, x *Element)
TEXT ·square(SB), NOSPLIT, $0-16
	CMPB ·useADX(SB), $1
	JNE  fallback
	MOVQ x+8(FP), DI
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	MOVQ R8, DX
	MUL_FIRST
	REDUCE_STEP(BX)
	MOVQ R9, DX
	MUL_NEXT
	REDUCE_STEP(BX)
	MOVQ R10, DX
	MUL_NEXT
	REDUCE_STEP(BX)
	MOVQ R11, DX
	MUL_NEXT
	REDUCE_STEP(BX)
	MOVQ z+0(FP), DI
	STORE_REDUCED
	RET

fallback:
	JMP ·squareGo(SB)

// func redc(z *Element)
TEXT ·redc(SB), NOSPLIT, $0-8
	CMPB ·useADX(SB), $1
	JNE  fallback
	MOVQ z+0(FP), DI
	MOVQ 0(DI), R12
	MOVQ 8(DI), R13
	MOVQ 16(DI), R14
	MOVQ 24(DI), CX
	REDUCE_STEP(AX)
	REDUCE_STEP(AX)
	REDUCE_STEP(AX)
	REDUCE_STEP(AX)
	STORE_REDUCED
	RET

fallback:
	JMP ·redcGo(SB)

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET
