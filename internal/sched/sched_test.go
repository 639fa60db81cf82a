package sched

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"batchzk/internal/telemetry"
)

type item struct {
	id    int
	trace []int
	err   error
}

func feed(n int) <-chan item {
	in := make(chan item, n)
	for i := 0; i < n; i++ {
		in <- item{id: i}
	}
	close(in)
	return in
}

func collect(g *Graph[item], in <-chan item) []item {
	var got []item
	g.Run(in, func(it item) { got = append(got, it) })
	return got
}

func TestGraphValidation(t *testing.T) {
	proc := func(int, *item) {}
	if _, err := NewGraph[item](nil, proc, Options{InFlight: 1}); err == nil {
		t.Fatal("accepted empty stage list")
	}
	if _, err := NewGraph[item]([]string{"a"}, nil, Options{InFlight: 1}); err == nil {
		t.Fatal("accepted nil process")
	}
	if _, err := NewGraph([]string{"a"}, proc, Options{InFlight: 0}); err == nil {
		t.Fatal("accepted zero in-flight bound")
	}
	if _, err := NewGraph([]string{"a", ""}, proc, Options{InFlight: 1}); err == nil {
		t.Fatal("accepted an unnamed stage")
	}
	g, err := NewGraph([]string{"a"}, proc, Options{InFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	collect(g, feed(1))
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	g.Run(feed(1), func(item) {})
}

// Every item must traverse every stage exactly once, in stage order, and
// emerge in submission order; each stage sees the items in that order
// too. The per-stage worker pools this test is named for are gone — each
// stage is one goroutine — but the first stage still yields a varying
// number of times per item, so the faster later stages drain and refill
// while the in-flight bound holds admission back.
func TestGraphOrderingWithPools(t *testing.T) {
	stages := []string{"a", "b", "c"}
	var seen [3][]int // per stage; each slice is touched by one goroutine only
	g, err := NewGraph(stages, func(stage int, it *item) {
		if stage == 0 {
			for k := 0; k < (97-it.id)%7; k++ {
				runtime.Gosched()
			}
		}
		seen[stage] = append(seen[stage], it.id)
		it.trace = append(it.trace, stage)
	}, Options{Name: "t", InFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	got := collect(g, feed(n))
	if len(got) != n {
		t.Fatalf("got %d items, want %d", len(got), n)
	}
	for i, it := range got {
		if it.id != i {
			t.Fatalf("out of order: id %d at position %d", it.id, i)
		}
		if len(it.trace) != len(stages) {
			t.Fatalf("item %d visited %d stages", i, len(it.trace))
		}
		for s, v := range it.trace {
			if v != s {
				t.Fatalf("item %d stage order %v", i, it.trace)
			}
		}
	}
	for s := range seen {
		for i, id := range seen[s] {
			if id != i {
				t.Fatalf("stage %d saw id %d at position %d", s, id, i)
			}
		}
	}
}

// The graph's per-stage series must account for every item. The
// per-stage workers gauges this test is named for are gone with the
// pools, and the in-flight count is the graph owner's to record (core's
// core/jobs/in_flight); the queue-wait histograms are what is left.
func TestGraphWorkerGauges(t *testing.T) {
	sink := telemetry.NewSink(telemetry.Config{})
	stages := []string{"commit", "open"}
	g, err := NewGraph(stages, func(int, *item) {}, Options{Name: "core", InFlight: 4, Telemetry: sink})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	if got := collect(g, feed(n)); len(got) != n {
		t.Fatalf("got %d items, want %d", len(got), n)
	}
	snap := sink.Metrics.Snapshot()
	for _, name := range stages {
		if c := snap.Histograms["sched/core/stage/"+name+"/queue_wait_ns"].Count; c != n {
			t.Fatalf("stage %s queue-wait observations = %d, want %d", name, c, n)
		}
	}
}

// The in-flight bound must be reached and never exceeded. The last stage
// holds every item until the test releases it, so an item that has not
// been released cannot have been emitted: at every first-stage entry,
// entries − releases ≤ entries − emissions ≤ bound. The test waits, by
// handshake, for the first stage to reach the bound before releasing
// anything, so a graph that admits too few items deadlocks the test.
func TestGraphInFlightBound(t *testing.T) {
	const bound, n = 3, 24
	var entered, released, peak atomic.Int64
	arrived := make(chan struct{}, n)
	gate := make(chan struct{})
	g, err := NewGraph([]string{"first", "mid", "last"}, func(stage int, it *item) {
		switch stage {
		case 0:
			inside := entered.Add(1) - released.Load()
			for p := peak.Load(); inside > p && !peak.CompareAndSwap(p, inside); p = peak.Load() {
			}
			arrived <- struct{}{}
		case 2:
			<-gate
		}
	}, Options{Name: "bound", InFlight: bound})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int)
	go func() {
		k := 0
		g.Run(feed(n), func(item) { k++ })
		done <- k
	}()
	for i := 0; i < bound; i++ {
		<-arrived
	}
	for i := 0; i < n; i++ {
		released.Add(1)
		gate <- struct{}{}
	}
	if k := <-done; k != n {
		t.Fatalf("emitted %d items, want %d", k, n)
	}
	if p := peak.Load(); p != bound {
		t.Fatalf("peak of %d items inside the graph, bound %d", p, bound)
	}
}

// A panicking process call must be recovered, reported through the
// handler, and the item still run through the later stages and emitted
// in order.
func TestGraphPanicRecovery(t *testing.T) {
	sink := telemetry.NewSink(telemetry.Config{})
	g, err := NewGraph([]string{"s", "after"}, func(stage int, it *item) {
		if stage == 0 && it.id == 3 {
			panic("boom")
		}
		it.trace = append(it.trace, stage)
	}, Options{Name: "p", InFlight: 4, Telemetry: sink})
	if err != nil {
		t.Fatal(err)
	}
	g.SetRecover(func(stage int, it *item, r any) {
		it.err = fmt.Errorf("stage %d: %v", stage, r)
	})
	got := collect(g, feed(8))
	if len(got) != 8 {
		t.Fatalf("got %d items", len(got))
	}
	for i, it := range got {
		if it.id != i {
			t.Fatalf("out of order after panic: %d at %d", it.id, i)
		}
		if (it.id == 3) != (it.err != nil) {
			t.Fatalf("item %d error state %v", it.id, it.err)
		}
		if it.trace[len(it.trace)-1] != 1 {
			t.Fatalf("item %d skipped the stage after the panic: %v", it.id, it.trace)
		}
	}
	if n := sink.Metrics.Snapshot().Counters["sched/p/panics_recovered"]; n != 1 {
		t.Fatalf("panics_recovered = %d", n)
	}
}

func TestRunCycles(t *testing.T) {
	sink := telemetry.NewSink(telemetry.Config{})
	var order []string
	slots, err := RunCycles(3, 2, func(cycle, stage, task int) error {
		order = append(order, fmt.Sprintf("c%d s%d t%d", cycle, stage, task))
		return nil
	}, nil, CycleConfig{Layer: "pipeline", Module: "m", Telemetry: sink})
	if err != nil || len(slots) != 0 {
		t.Fatalf("clean run: %v %v", slots, err)
	}
	// Figure 4b: stages descend within a cycle; one task enters per cycle.
	want := []string{
		"c0 s0 t0",
		"c1 s1 t0", "c1 s0 t1",
		"c2 s1 t1", "c2 s0 t2",
		"c3 s1 t2",
	}
	if len(order) != len(want) {
		t.Fatalf("slot order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("slot order %v, want %v", order, want)
		}
	}
	snap := sink.Metrics.Snapshot()
	if snap.Counters["pipeline/m/cycles"] != 4 {
		t.Fatalf("cycles counter = %d", snap.Counters["pipeline/m/cycles"])
	}
	if snap.Histograms["pipeline/m/slot_ns"].Count != 6 {
		t.Fatal("slot histogram incomplete")
	}
}

func TestRunCyclesPoisonAndPanic(t *testing.T) {
	sink := telemetry.NewSink(telemetry.Config{})
	var ran []string
	slots, err := RunCycles(3, 3, func(cycle, stage, task int) error {
		ran = append(ran, fmt.Sprintf("s%d t%d", stage, task))
		if task == 1 && stage == 0 {
			return fmt.Errorf("bad task")
		}
		if task == 2 && stage == 1 {
			panic("kaboom")
		}
		return nil
	}, nil, CycleConfig{Layer: "pipeline", Module: "m", Telemetry: sink})
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 2 {
		t.Fatalf("slot errors: %+v", slots)
	}
	if slots[0].Task != 1 || slots[0].Stage != 0 {
		t.Fatalf("first slot error %+v", slots[0])
	}
	if slots[1].Task != 2 || slots[1].Stage != 1 {
		t.Fatalf("second slot error %+v", slots[1])
	}
	// Poisoned tasks must not run later stages.
	for _, s := range ran {
		if s == "s1 t1" || s == "s2 t1" || s == "s2 t2" {
			t.Fatalf("poisoned slot ran: %v", ran)
		}
	}
	snap := sink.Metrics.Snapshot()
	if snap.Counters["pipeline/m/task_errors"] != 2 {
		t.Fatal("task_errors counter wrong")
	}
	if snap.Counters["pipeline/m/panics_recovered"] != 1 {
		t.Fatal("panics_recovered counter wrong")
	}
}

func TestRunCyclesEndCycleAborts(t *testing.T) {
	boom := fmt.Errorf("buffer discipline violated")
	_, err := RunCycles(2, 2, func(int, int, int) error { return nil },
		func(cycle int) error {
			if cycle == 1 {
				return boom
			}
			return nil
		}, CycleConfig{})
	if err != boom {
		t.Fatalf("endCycle error not fatal: %v", err)
	}
	if _, err := RunCycles(0, 2, func(int, int, int) error { return nil }, nil, CycleConfig{}); err == nil {
		t.Fatal("accepted zero tasks")
	}
}
