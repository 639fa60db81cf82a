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

// A single small experiment renders a table without error and dumps its
// telemetry when asked.
func TestRunSingleExperiment(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	ids := strings.Fields(listOutput(t))
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	if err := run([]string{"-experiment", ids[0], "-telemetry", dir}, &out, &errOut); err != nil {
		t.Fatalf("run -experiment %s: %v\nstderr: %s", ids[0], err, errOut.String())
	}
	if strings.TrimSpace(out.String()) == "" {
		t.Fatalf("experiment %s produced no output", ids[0])
	}
	for _, name := range []string{"metrics.json", "trace.json"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Fatalf("telemetry %s empty or missing: %v", name, err)
		}
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
