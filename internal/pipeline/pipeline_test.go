package pipeline

import (
	"testing"

	"batchzk/internal/encoder"
	"batchzk/internal/perfmodel"
)

func TestWarpImbalance(t *testing.T) {
	// Uniform rows: no imbalance regardless of sorting.
	uniform := make([]byte, 64)
	for i := range uniform {
		uniform[i] = 10
	}
	if got := WarpImbalance(uniform, false); got != 1 {
		t.Fatalf("uniform imbalance = %v", got)
	}
	// Alternating 1/21 rows: unsorted warps all pay max=21 → factor
	// 32·21·2 / (22·32) = 21/11 ≈ 1.9; sorted groups separate them.
	skewed := make([]byte, 64)
	for i := range skewed {
		if i%2 == 0 {
			skewed[i] = 1
		} else {
			skewed[i] = 21
		}
	}
	unsorted := WarpImbalance(skewed, false)
	sorted := WarpImbalance(skewed, true)
	if unsorted <= sorted {
		t.Fatalf("sorting should help: unsorted=%.3f sorted=%.3f", unsorted, sorted)
	}
	if sorted != 1 {
		t.Fatalf("perfectly separable rows should sort to 1, got %.3f", sorted)
	}
	if WarpImbalance(nil, true) != 1 {
		t.Fatal("empty rows should be neutral")
	}
	if WarpImbalance(make([]byte, 8), false) != 1 {
		t.Fatal("all-zero rows should be neutral")
	}
	// sortedCopy helper agrees with the bucket sort's grouping cost.
	sc := sortedCopy(skewed)
	if WarpImbalance(sc, false) != sorted {
		t.Fatal("sortedCopy and bucket sort disagree")
	}
}

func TestStageBuilders(t *testing.T) {
	costs := perfmodel.GPUCosts()
	ms, err := MerkleStages(64, costs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 7 { // leaves + 6 layers
		t.Fatalf("merkle stages = %d", len(ms))
	}
	work := 0.0
	for _, s := range ms {
		work += s.WorkOps
	}
	if work != 127 { // 2·64 − 1 compressions
		t.Fatalf("total merkle work = %v", work)
	}
	if _, err := MerkleStages(3, costs); err == nil {
		t.Fatal("accepted non-power-of-two")
	}

	ss, err := SumcheckStages(8, costs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 8 {
		t.Fatalf("sumcheck stages = %d", len(ss))
	}
	if ss[0].HostBytesIn != 256*perfmodel.FieldBytes {
		t.Fatal("sumcheck dynamic loading missing")
	}
	if _, err := SumcheckStages(0, costs); err == nil {
		t.Fatal("accepted zero variables")
	}

	enc, _ := encoder.New(128, encoder.DefaultParams())
	es := EncoderStages(enc, costs, true)
	if len(es) != 2*enc.NumStages()+1 {
		t.Fatalf("encoder stages = %d", len(es))
	}
	// Total matrix work must equal the encoder's own count.
	mads := 0.0
	for _, s := range es {
		if s.Name != "encoder/base" {
			mads += s.WorkOps
		}
	}
	if int(mads) != enc.WorkNonZeros() {
		t.Fatalf("encoder stage work %v != WorkNonZeros %d", mads, enc.WorkNonZeros())
	}
}

func TestSimulateModulesShapes(t *testing.T) {
	spec := perfmodel.RTX3090Ti()
	costs := perfmodel.GPUCosts()
	batch := 64

	// Merkle: pipelined throughput beats naive; latency is worse (Table 6).
	pm, err := SimulateMerkle(spec, costs, 1<<14, batch, Pipelined, true)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := SimulateMerkle(spec, costs, 1<<14, batch, Naive, false)
	if err != nil {
		t.Fatal(err)
	}
	if pm.ThroughputPerMs() <= nm.ThroughputPerMs() {
		t.Fatalf("merkle: pipelined %.3f ≤ naive %.3f trees/ms", pm.ThroughputPerMs(), nm.ThroughputPerMs())
	}
	if pm.LatencyNs <= nm.LatencyNs {
		t.Fatalf("merkle: pipelined latency should be higher (Table 6)")
	}
	// Memory: pipelined in-flight footprint below the naive batch load.
	if pm.PeakDeviceBytes >= nm.PeakDeviceBytes {
		t.Fatalf("merkle memory: pipelined %d ≥ naive %d", pm.PeakDeviceBytes, nm.PeakDeviceBytes)
	}

	// Sum-check.
	ps, err := SimulateSumcheck(spec, costs, 14, batch, Pipelined, true)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := SimulateSumcheck(spec, costs, 14, batch, Naive, false)
	if err != nil {
		t.Fatal(err)
	}
	if ps.ThroughputPerMs() <= ns.ThroughputPerMs() {
		t.Fatalf("sumcheck: pipelined %.3f ≤ naive %.3f proofs/ms", ps.ThroughputPerMs(), ns.ThroughputPerMs())
	}

	// Encoder: pipelined beats non-pipelined; sorted rows beat unsorted.
	enc, _ := encoder.New(1<<12, encoder.DefaultParams())
	pe, err := SimulateEncoder(spec, costs, enc, batch, Pipelined, true, true)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := SimulateEncoder(spec, costs, enc, batch, Naive, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if pe.ThroughputPerMs() <= ne.ThroughputPerMs() {
		t.Fatalf("encoder: pipelined %.3f ≤ np %.3f codes/ms", pe.ThroughputPerMs(), ne.ThroughputPerMs())
	}
	un, err := SimulateEncoder(spec, costs, enc, batch, Pipelined, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if un.ThroughputPerMs() > pe.ThroughputPerMs() {
		t.Fatalf("encoder: unsorted rows should not beat sorted")
	}

	// Unknown scheme errors.
	if _, err := SimulateMerkle(spec, costs, 1<<10, 1, Scheme("x"), false); err == nil {
		t.Fatal("unknown scheme accepted (merkle)")
	}
	if _, err := SimulateSumcheck(spec, costs, 10, 1, Scheme("x"), false); err == nil {
		t.Fatal("unknown scheme accepted (sumcheck)")
	}
	if _, err := SimulateEncoder(spec, costs, enc, 1, Scheme("x"), false, true); err == nil {
		t.Fatal("unknown scheme accepted (encoder)")
	}
}

func TestSpeedupGrowsForSmallerSizes(t *testing.T) {
	// Table 3's trend on the real module model.
	spec := perfmodel.GH200()
	costs := perfmodel.GPUCosts()
	speedup := func(logN int) float64 {
		p, err := SimulateMerkle(spec, costs, 1<<logN, 32, Pipelined, true)
		if err != nil {
			t.Fatal(err)
		}
		n, err := SimulateMerkle(spec, costs, 1<<logN, 32, Naive, false)
		if err != nil {
			t.Fatal(err)
		}
		return p.ThroughputPerMs() / n.ThroughputPerMs()
	}
	if s14, s20 := speedup(14), speedup(20); s14 <= s20 {
		t.Fatalf("speedup should grow as trees shrink: 2^14→%.2f 2^20→%.2f", s14, s20)
	}
}
