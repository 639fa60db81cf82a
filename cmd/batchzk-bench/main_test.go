package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunListsExperiments(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatalf("run -list: %v\nstderr: %s", err, errOut.String())
	}
	if strings.TrimSpace(out.String()) == "" {
		t.Fatal("-list printed no experiment ids")
	}
}

// A single small experiment renders a table without error.
func TestRunSingleExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	ids := strings.Fields(listOutput(t))
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	if err := run([]string{"-experiment", ids[0]}, &out, &errOut); err != nil {
		t.Fatalf("run -experiment %s: %v\nstderr: %s", ids[0], err, errOut.String())
	}
	if strings.TrimSpace(out.String()) == "" {
		t.Fatalf("experiment %s produced no output", ids[0])
	}
}

// The chaos path: a reproducible fault-injected batch must reconcile its
// ledger, report verified survivors, and dump its telemetry when asked.
func TestRunChaosSmoke(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	err := run([]string{"-faults", "all=0.05", "-fault-seed", "7", "-fault-jobs", "4", "-telemetry", dir}, &out, &errOut)
	if err != nil {
		t.Fatalf("chaos run: %v\nstderr: %s", err, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"chaos run:", "completed=", "faults:", "proofs verified"} {
		if !strings.Contains(got, want) {
			t.Fatalf("chaos output missing %q:\n%s", want, got)
		}
	}
	for _, name := range []string{"trace.json", "timeline.json"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Fatalf("chaos run telemetry %s empty or missing: %v", name, err)
		}
	}
}

func TestRunRejectsBadFaultSpec(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-faults", "bogus-class=0.5"}, &out, &out); err == nil {
		t.Fatal("bogus fault spec accepted")
	}
}

func listOutput(t *testing.T) string {
	t.Helper()
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}
