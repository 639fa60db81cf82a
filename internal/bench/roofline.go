package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/merkle"
	"batchzk/internal/par"
	"batchzk/internal/poly"
	"batchzk/internal/sha2"
	"batchzk/internal/sumcheck"
	"batchzk/internal/transcript"
)

// Host-kernel roofline: the CPU analogue of gpusim's bandwidth-roofline
// verdicts, answering ZKProphet's question for this codebase — after the
// kernels are tuned, how far is each one from the arithmetic it cannot
// avoid? The ceiling is calibrated, not assumed: we measure this host's
// Montgomery multiply, add, and SHA-256 compression costs, multiply them
// by each kernel's analytic per-element operation counts, and compare
// against the kernel's measured serial ns/element. A kernel at a high
// percentage of its ALU ceiling is arithmetic-bound (further speedups
// need parallelism or algorithmic change); a low percentage means the
// time goes to memory traffic, bookkeeping, or dispatch overhead.

// RooflineReportKind discriminates roofline reports in BENCH_*.json
// files.
const RooflineReportKind = "roofline"

// RooflineSchemaVersion identifies the roofline report layout.
const RooflineSchemaVersion = 1

// Roofline verdicts, mirroring the gpusim profile verdict convention.
const (
	// VerdictNearALUCeiling: ≥ 60% of the calibrated ALU bound — the
	// kernel's time is the arithmetic itself.
	VerdictNearALUCeiling = "near-alu-ceiling"
	// VerdictALUHeadroom: 25–60% — arithmetic dominates but per-element
	// overhead (loads, index math, function calls) is visible.
	VerdictALUHeadroom = "alu-headroom"
	// VerdictOverheadBound: < 25% — the ALU is mostly idle; memory
	// traffic or bookkeeping owns the time.
	VerdictOverheadBound = "overhead-bound"
)

// ALUCalibration holds the measured per-operation costs of this host's
// scalar arithmetic — the quantities the theoretical floors multiply.
type ALUCalibration struct {
	// MulNs is one 254-bit Montgomery field multiplication.
	MulNs float64 `json:"mul_ns"`
	// AddNs is one field addition (with conditional reduction).
	AddNs float64 `json:"add_ns"`
	// CompressNs is one SHA-256 compression as sha2.Compress2 delivers it:
	// a block through crypto/sha256 (SHA-NI where the CPU has it) plus
	// reading the chaining value back out of the marshalled state. It is
	// the floor for kernels built on single compressions (Merkle levels);
	// streamed hashing of long inputs runs below it per block, since it
	// pays the call into crypto/sha256 once per buffer.
	CompressNs float64 `json:"compress_ns"`
	// WideMacNs and WideReduceNs are the encoder's row kernel (the MULX
	// assembly where the CPU has it, the Go loop otherwise), timed
	// through SparseMatrix.MulVecInto, the entry point the encoder runs.
	// WideMacNs is one term: a 64-bit coefficient times a field element
	// added into the unreduced accumulator (4 limb multiplies).
	// WideReduceNs is the rest of one row: its reduction, the call and
	// the loop around it.
	WideMacNs    float64 `json:"wide_mac_ns"`
	WideReduceNs float64 `json:"wide_reduce_ns"`
}

// RooflineKernel is one kernel's measurement against its ALU floor.
type RooflineKernel struct {
	Name string `json:"name"`
	Size int    `json:"size"`
	// MeasuredNs is the serial (width-1) wall time, best of reps — the
	// fair comparison point for a single ALU's theoretical floor.
	MeasuredNs   int64   `json:"measured_ns"`
	NsPerElement float64 `json:"ns_per_element"`
	// Per-element operation counts of the analytic work model.
	MulsPerElement        float64 `json:"muls_per_element"`
	AddsPerElement        float64 `json:"adds_per_element"`
	CompressPerElement    float64 `json:"compress_per_element"`
	WideMacsPerElement    float64 `json:"wide_macs_per_element,omitempty"`
	WideReducesPerElement float64 `json:"wide_reduces_per_element,omitempty"`
	// FloorNsPerElement = muls·MulNs + adds·AddNs + compress·CompressNs
	// + wideMacs·WideMacNs + wideReduces·WideReduceNs.
	FloorNsPerElement float64 `json:"floor_ns_per_element"`
	// PctOfCeiling is floor/measured × 100: how much of the kernel's
	// time is the arithmetic it cannot avoid.
	PctOfCeiling float64 `json:"pct_of_ceiling"`
	Verdict      string  `json:"verdict"`
	// Model documents the op-count model (and whether it is exact).
	Model string `json:"model"`
	// Dispatch counters from the par runtime for the measured run.
	ParCalls  int64 `json:"par_calls"`
	ParItems  int64 `json:"par_items"`
	ParChunks int64 `json:"par_chunks"`
	ParInline int64 `json:"par_inline"`
}

// RooflineReport is the schema-versioned roofline output.
type RooflineReport struct {
	SchemaVersion int    `json:"schema_version"`
	Kind          string `json:"kind"`
	Cores         int    `json:"cores"`
	Shift         int    `json:"shift"`
	Reps          int    `json:"reps"`

	Calibration ALUCalibration   `json:"calibration"`
	Kernels     []RooflineKernel `json:"kernels"`
}

// rooflineVerdict classifies a pct-of-ceiling figure.
func rooflineVerdict(pct float64) string {
	switch {
	case pct >= 60:
		return VerdictNearALUCeiling
	case pct >= 25:
		return VerdictALUHeadroom
	default:
		return VerdictOverheadBound
	}
}

// calibrateALU measures the host's per-operation costs. Each primitive
// runs as a serial dependency chain over enough iterations to swamp
// timer resolution, best of three runs so a scheduling hiccup cannot
// inflate the ceiling.
func calibrateALU() ALUCalibration {
	const (
		fieldOps = 1 << 17
		hashOps  = 1 << 13
		runs     = 3
	)
	bestNs := func(run func() float64) float64 {
		best := math.Inf(1)
		for r := 0; r < runs; r++ {
			if ns := run(); ns < best {
				best = ns
			}
		}
		return best
	}
	a := field.NewElement(3)
	b := field.NewElement(0x9e3779b97f4a7c15)
	cal := ALUCalibration{}
	cal.MulNs = bestNs(func() float64 {
		acc := a
		start := time.Now()
		for i := 0; i < fieldOps; i++ {
			acc.Mul(&acc, &b)
		}
		calibrationSink = acc
		return float64(time.Since(start).Nanoseconds()) / fieldOps
	})
	cal.AddNs = bestNs(func() float64 {
		acc := a
		start := time.Now()
		for i := 0; i < fieldOps; i++ {
			acc.Add(&acc, &b)
		}
		calibrationSink = acc
		return float64(time.Since(start).Nanoseconds()) / fieldOps
	})
	// The row kernel's costs come from a short and a long row of fixed
	// columns, 64 copies of each: the per-term cost is the slope, the
	// per-row cost the intercept. Rows run independently, as the
	// encoder's do.
	x := make([]field.Element, field.MaxWideTerms)
	for i := range x {
		x[i] = field.NewElement(0x9e3779b97f4a7c15 * uint64(i+1))
	}
	rowNs := func(w int) float64 {
		row := make([]encoder.Entry, w)
		for k := range row {
			row[k] = encoder.Entry{Col: k * len(x) / w, Coeff: 0x9e3779b97f4a7c15 + uint64(k)}
		}
		m := &encoder.SparseMatrix{InDim: len(x), OutDim: 64, Rows: make([][]encoder.Entry, 64)}
		for j := range m.Rows {
			m.Rows[j] = row
		}
		out := make([]field.Element, m.OutDim)
		calls := fieldOps/(m.OutDim*w) + 1
		return bestNs(func() float64 {
			start := time.Now()
			for i := 0; i < calls; i++ {
				_ = m.MulVecInto(out, x)
			}
			calibrationSink = out[0]
			return float64(time.Since(start).Nanoseconds()) / float64(calls*m.OutDim)
		})
	}
	const short, long = 8, field.MaxWideTerms
	shortNs, longNs := rowNs(short), rowNs(long)
	cal.WideMacNs = math.Max(longNs-shortNs, 0) / (long - short)
	cal.WideReduceNs = math.Max(shortNs-short*cal.WideMacNs, 0)
	var l, r sha2.Digest
	l[0], r[0] = 1, 2
	cal.CompressNs = bestNs(func() float64 {
		d := l
		start := time.Now()
		for i := 0; i < hashOps; i++ {
			d = sha2.Compress2(&d, &r)
		}
		calibrationDigest = d
		return float64(time.Since(start).Nanoseconds()) / hashOps
	})
	return cal
}

// fastest returns, per primitive, the lower cost of c and o.
func (c ALUCalibration) fastest(o ALUCalibration) ALUCalibration {
	return ALUCalibration{
		MulNs:        math.Min(c.MulNs, o.MulNs),
		AddNs:        math.Min(c.AddNs, o.AddNs),
		CompressNs:   math.Min(c.CompressNs, o.CompressNs),
		WideMacNs:    math.Min(c.WideMacNs, o.WideMacNs),
		WideReduceNs: math.Min(c.WideReduceNs, o.WideReduceNs),
	}
}

// Calibration sinks: stores the dead-code eliminator cannot remove, so
// the dependency chains above are really executed.
var (
	calibrationSink   field.Element
	calibrationDigest sha2.Digest
)

// rooflineCase is one kernel with its analytic per-element op model.
type rooflineCase struct {
	name     string
	size     int
	muls     float64 // field multiplications per element
	adds     float64 // field additions per element
	compress float64 // SHA-256 compressions per element
	macs     float64 // row-kernel terms per element
	reduces  float64 // row-kernel rows per element
	model    string
	run      func() error
}

// maxRooflineShift bounds the per-kernel size at 2^28 elements. Every
// case's inputs are resident at once (64-byte Merkle blocks, the sum-check
// table, the encoder's message and 4n-element codeword, the batch-inverse
// vector), about 320 bytes per element, so 2^28 already asks for ~80 GiB:
// the bound rejects a mistyped -shift before the allocation does.
const maxRooflineShift = 28

// rooflineCases assembles the kernel suite with deterministic inputs.
// Op models are exact where the code admits exact counting (merkle,
// encoder, batch-inverse) and a documented approximation for sum-check.
func rooflineCases(shift int, seed int64) ([]rooflineCase, error) {
	if shift < 6 || shift > maxRooflineShift {
		return nil, fmt.Errorf("bench: roofline shift %d out of [6, %d]", shift, maxRooflineShift)
	}
	rng := rand.New(rand.NewSource(seed))
	randVec := func(n int) []field.Element {
		out := make([]field.Element, n)
		for i := range out {
			var b [64]byte
			rng.Read(b[:])
			out[i].SetBytesWide(b[:])
		}
		return out
	}
	n := 1 << shift

	blocks := make([]merkle.Block, n)
	for i := range blocks {
		rng.Read(blocks[i][:])
	}

	encMsg := randVec(n)
	enc, err := encoder.New(n, encoder.DefaultParams())
	if err != nil {
		return nil, err
	}
	encOut := make([]field.Element, enc.CodewordLen())
	// Exact encoder arithmetic: every nonzero of both sparse phases is
	// one wide multiply-accumulate, and every output row of both phases
	// one reduction (a codeword of 4n has n/2 + n first-phase outputs at
	// the top level, halving per level down to the base code).
	var encNNZ, encRows float64
	for _, st := range enc.Stages() {
		encNNZ += float64(st.First.NumNonZeros() + st.Second.NumNonZeros())
		encRows += float64(st.First.OutDim + st.Second.OutDim)
	}

	scTable := randVec(n)
	invVec := randVec(n)

	return []rooflineCase{
		{
			name: "merkle/build", size: n,
			compress: (2*float64(n) - 1) / float64(n),
			model:    "exact: 2n-1 SHA-256 compressions per n-block tree",
			run: func() error {
				_, err := merkle.Build(blocks)
				return err
			},
		},
		{
			name: "sumcheck/prove", size: n,
			muls:  1,
			adds:  3,
			model: "approx: n-1 fold lerps (1 mul + 2 add) + 2 partial-sum adds per surviving entry",
			run: func() error {
				m, err := poly.NewMultilinear(scTable)
				if err != nil {
					return err
				}
				sumcheck.Prove(m, transcript.New("bench/roofline"))
				return nil
			},
		},
		{
			name: "encoder/encode", size: n,
			macs:    encNNZ / float64(n),
			reduces: encRows / float64(n),
			model:   "exact: one row-kernel term (4 limb-muls) per sparse-matrix nonzero + one row (reduction and call) per output row",
			run: func() error {
				return enc.EncodeInto(encOut, encMsg)
			},
		},
		{
			name: "field/batch-inverse", size: n,
			muls:  3,
			adds:  0,
			model: "exact: Montgomery batch trick, 3(n-1) muls + 1 inversion",
			run: func() error {
				s := par.GetScratch()
				defer par.PutScratch(s)
				dst := make([]field.Element, len(invVec))
				s.BatchInverse(dst, invVec)
				return nil
			},
		},
	}, nil
}

// BuildRooflineReport calibrates the host ALU and measures every kernel
// serially (width 1, best of reps) against its analytic floor. The
// calibration is repeated between kernel measurements and each
// primitive keeps its fastest run, so a burst of contention during one
// calibration cannot raise the floors above what the kernels achieved:
// floors are computed only once every kernel has been measured. The
// global runtime width is restored to the default on return.
func BuildRooflineReport(shift, reps int, seed int64) (*RooflineReport, error) {
	if reps < 1 {
		reps = 1
	}
	cases, err := rooflineCases(shift, seed)
	if err != nil {
		return nil, err
	}
	rep := &RooflineReport{
		SchemaVersion: RooflineSchemaVersion,
		Kind:          RooflineReportKind,
		Cores:         runtime.NumCPU(),
		Shift:         shift,
		Reps:          reps,
		Calibration:   calibrateALU(),
	}

	par.SetWidth(1)
	defer par.SetWidth(0)
	for _, k := range cases {
		var best int64
		var stats par.RuntimeStats
		for r := 0; r < reps; r++ {
			before := par.Stats()
			start := time.Now()
			if err := k.run(); err != nil {
				return nil, fmt.Errorf("bench: roofline kernel %s: %w", k.name, err)
			}
			elapsed := time.Since(start).Nanoseconds()
			if r == 0 || elapsed < best {
				best = elapsed
				stats = par.Stats().Delta(before)
			}
		}
		rep.Calibration = rep.Calibration.fastest(calibrateALU())
		rep.Kernels = append(rep.Kernels, RooflineKernel{
			Name:                  k.name,
			Size:                  k.size,
			MeasuredNs:            best,
			NsPerElement:          float64(best) / float64(k.size),
			MulsPerElement:        k.muls,
			AddsPerElement:        k.adds,
			CompressPerElement:    k.compress,
			WideMacsPerElement:    k.macs,
			WideReducesPerElement: k.reduces,
			Model:                 k.model,
			ParCalls:              stats.Calls,
			ParItems:              stats.Items,
			ParChunks:             stats.Chunks,
			ParInline:             stats.Inline,
		})
	}
	cal := rep.Calibration
	for i := range rep.Kernels {
		res := &rep.Kernels[i]
		res.FloorNsPerElement = res.MulsPerElement*cal.MulNs + res.AddsPerElement*cal.AddNs +
			res.CompressPerElement*cal.CompressNs + res.WideMacsPerElement*cal.WideMacNs +
			res.WideReducesPerElement*cal.WideReduceNs
		if res.NsPerElement > 0 {
			res.PctOfCeiling = res.FloorNsPerElement / res.NsPerElement * 100
		}
		res.Verdict = rooflineVerdict(res.PctOfCeiling)
	}
	return rep, nil
}

// WriteJSON serializes the report, indented, trailing newline included.
func (r *RooflineReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadRooflineReport parses a roofline report stream and validates its
// schema and kind.
func ReadRooflineReport(rd io.Reader) (*RooflineReport, error) {
	var r RooflineReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: parse roofline report: %w", err)
	}
	if r.Kind != RooflineReportKind {
		return nil, fmt.Errorf("bench: report kind %q, want %q", r.Kind, RooflineReportKind)
	}
	if r.SchemaVersion != RooflineSchemaVersion {
		return nil, fmt.Errorf("bench: roofline report schema v%d, this build reads v%d", r.SchemaVersion, RooflineSchemaVersion)
	}
	return &r, nil
}

// RenderTable writes the human-readable roofline table.
func (r *RooflineReport) RenderTable(w io.Writer) {
	fmt.Fprintf(w, "host-kernel roofline (serial, %d cores, shift %d)\n", r.Cores, r.Shift)
	fmt.Fprintf(w, "calibrated ALU: mul %.1f ns · add %.1f ns · sha256-compress %.1f ns · row term %.1f ns · row %.1f ns\n\n",
		r.Calibration.MulNs, r.Calibration.AddNs, r.Calibration.CompressNs, r.Calibration.WideMacNs, r.Calibration.WideReduceNs)
	fmt.Fprintf(w, "%-20s %10s %12s %12s %8s  %s\n",
		"kernel", "size", "ns/elem", "floor ns", "%ceil", "verdict")
	for _, k := range r.Kernels {
		fmt.Fprintf(w, "%-20s %10d %12.1f %12.1f %7.1f%%  %s\n",
			k.Name, k.Size, k.NsPerElement, k.FloorNsPerElement, k.PctOfCeiling, k.Verdict)
	}
}
