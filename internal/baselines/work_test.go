package baselines

import (
	"testing"

	"batchzk/internal/field"
)

func TestWorkButterflies(t *testing.T) {
	// A radix-2 transform of size n = 2^k runs k stages of n/2 butterflies.
	for _, n := range []int{-1, 0, 1} {
		if got := workButterflies(n); got != 0 {
			t.Fatalf("workButterflies(%d) = %d, want 0", n, got)
		}
	}
	for k := 1; k <= 24; k++ {
		if got, want := workButterflies(1<<k), k<<(k-1); got != want {
			t.Fatalf("workButterflies(2^%d) = %d, want %d", k, got, want)
		}
	}
}

func TestWindowBits(t *testing.T) {
	if windowBits(0) != 2 || windowBits(1) != 2 {
		t.Fatal("tiny inputs should clamp to 2")
	}
	if windowBits(1<<20) <= 2 {
		t.Fatal("large inputs should widen the window")
	}
	if windowBits(1<<30) > 16 {
		t.Fatal("window must clamp at 16")
	}
}

func TestWindowBitsMinimizesCost(t *testing.T) {
	cost := func(n, c int) int {
		numWindows := (field.Bits + c - 1) / c
		return numWindows * (bucketAddMuls*n + sweepBucketMuls*(1<<uint(c)))
	}
	prev := 0
	for logN := 8; logN <= 18; logN++ {
		n := 1 << logN
		got := windowBits(n)
		if got < 2 || got > 16 {
			t.Fatalf("n=2^%d: window %d out of [2,16]", logN, got)
		}
		for c := 2; c <= 16; c++ {
			if cost(n, c) < cost(n, got) {
				t.Fatalf("n=2^%d: window %d costs %d, but c=%d costs %d",
					logN, got, cost(n, got), c, cost(n, c))
			}
		}
		if got < prev {
			t.Fatalf("n=2^%d: window shrank from %d to %d", logN, prev, got)
		}
		prev = got
	}
}

func TestWorkBreakdownTextbook(t *testing.T) {
	// Pippenger over n points with c-bit windows: ⌈254/c⌉ windows, each
	// adding every point into a bucket and sweeping 2^c buckets with two
	// additions apiece, plus one doubling per scalar bit.
	for _, tc := range []struct{ n, c int }{{1, 2}, {1 << 10, 6}, {1 << 18, 13}, {1 << 21, 15}} {
		c := windowBits(tc.n)
		if c != tc.c {
			t.Fatalf("windowBits(%d) = %d, want %d", tc.n, c, tc.c)
		}
		windows := (254 + c - 1) / c
		b, s, d := workBreakdown(tc.n)
		if b != windows*tc.n || s != windows*(1<<(c+1)) || d != 254 {
			t.Fatalf("n=%d: breakdown (%d, %d, %d), want (%d, %d, 254)",
				tc.n, b, s, d, windows*tc.n, windows*(1<<(c+1)))
		}
		if got := workPointOps(tc.n); got != b+s+d {
			t.Fatalf("n=%d: workPointOps = %d, want %d", tc.n, got, b+s+d)
		}
	}
	if b, s, d := workBreakdown(0); b != 0 || s != 0 || d != 0 {
		t.Fatal("zero points should cost nothing")
	}
}

func TestWorkPointOps(t *testing.T) {
	if workPointOps(0) != 0 {
		t.Fatal("zero points should cost nothing")
	}
	small, large := workPointOps(1<<10), workPointOps(1<<16)
	if large <= small {
		t.Fatal("work must grow with n")
	}
	// Pippenger is subquadratic: 64× the points must cost far less than
	// 64× naive scalar muls would suggest relative to window growth.
	if large > 64*small {
		t.Fatal("work growth looks superlinear beyond windowing gains")
	}
}

func TestGrothWorkPinned(t *testing.T) {
	// The per-proof counts Tables 7–8 read; any drift moves those tables.
	want := map[int][2]float64{
		18: {49153524, 34865152},
		19: {89261556, 73400320},
		20: {167118324, 154140672},
		21: {317916660, 322961408},
		22: {616564212, 675282944},
	}
	for k := 18; k <= 22; k++ {
		p, b := grothWork(1 << k)
		if p != want[k][0] || b != want[k][1] {
			t.Fatalf("grothWork(2^%d) = (%.0f, %.0f), want (%.0f, %.0f)",
				k, p, b, want[k][0], want[k][1])
		}
	}
}
