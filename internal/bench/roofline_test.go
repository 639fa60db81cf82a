package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestRooflineReport(t *testing.T) {
	rep, err := BuildRooflineReport(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != RooflineReportKind || rep.SchemaVersion != RooflineSchemaVersion {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.Calibration.MulNs <= 0 || rep.Calibration.AddNs <= 0 || rep.Calibration.CompressNs <= 0 {
		t.Fatalf("calibration: %+v", rep.Calibration)
	}
	// A Montgomery multiply costs more than an add; a sha256 compression
	// costs more than a multiply. A calibration that violates this is
	// measuring noise. The race build instruments the Go Add but not the
	// assembly Mul or crypto/sha256's block function, so there the order
	// says nothing; the floors below are gated in both builds.
	if !raceDetector {
		if rep.Calibration.MulNs <= rep.Calibration.AddNs {
			t.Fatalf("mul %.1fns <= add %.1fns", rep.Calibration.MulNs, rep.Calibration.AddNs)
		}
		if rep.Calibration.CompressNs <= rep.Calibration.MulNs {
			t.Fatalf("compress %.1fns <= mul %.1fns", rep.Calibration.CompressNs, rep.Calibration.MulNs)
		}
	}

	wantKernels := map[string]bool{
		"merkle/build": false, "sumcheck/prove": false,
		"encoder/encode": false, "field/batch-inverse": false,
	}
	for _, k := range rep.Kernels {
		if _, ok := wantKernels[k.Name]; !ok {
			t.Fatalf("unexpected kernel %q", k.Name)
		}
		wantKernels[k.Name] = true
		if k.MeasuredNs <= 0 || k.NsPerElement <= 0 || k.FloorNsPerElement <= 0 {
			t.Fatalf("kernel %s: %+v", k.Name, k)
		}
		// The floor is a lower bound: no kernel beats its own arithmetic.
		// Allow a sliver of timer slack on tiny problem sizes.
		if k.PctOfCeiling > 110 {
			t.Fatalf("kernel %s at %.1f%% of its supposed ceiling", k.Name, k.PctOfCeiling)
		}
		switch k.Verdict {
		case VerdictNearALUCeiling, VerdictALUHeadroom, VerdictOverheadBound:
		default:
			t.Fatalf("kernel %s verdict %q", k.Name, k.Verdict)
		}
		// The roofline measures serially (width 1), so any kernel that did
		// route through the par runtime must have executed fully inline.
		if k.ParCalls > 0 && k.ParInline != k.ParChunks {
			t.Fatalf("kernel %s ran %d of %d chunks off-thread in a serial measurement: %+v",
				k.Name, k.ParChunks-k.ParInline, k.ParChunks, k)
		}
	}
	// Kernels below their parallel-dispatch thresholds (and the
	// inherently serial batch inverse) legitimately bypass the runtime,
	// but the big data-parallel kernels must show attribution.
	var attributed int
	for _, k := range rep.Kernels {
		if k.ParCalls > 0 && k.ParItems > 0 {
			attributed++
		}
	}
	if attributed == 0 {
		t.Fatal("no kernel carried par runtime attribution")
	}
	for name, seen := range wantKernels {
		if !seen {
			t.Fatalf("kernel %s missing from the roofline", name)
		}
	}
}

func TestRooflineRoundTripAndTable(t *testing.T) {
	rep, err := BuildRooflineReport(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRooflineReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Kernels) != len(rep.Kernels) {
		t.Fatalf("round trip lost kernels: %d vs %d", len(back.Kernels), len(rep.Kernels))
	}
	if _, err := ReadRooflineReport(strings.NewReader(`{"schema_version":1,"kind":"memory"}`)); err == nil {
		t.Fatal("foreign kind accepted")
	}

	var tbl bytes.Buffer
	rep.RenderTable(&tbl)
	out := tbl.String()
	for _, want := range []string{"merkle/build", "field/batch-inverse", "%ceil", "calibrated ALU"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
