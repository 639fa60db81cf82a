package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunListsScenarios(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatalf("run -list: %v\nstderr: %s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "quickstart") {
		t.Fatalf("-list output missing quickstart scenario:\n%s", out.String())
	}
}

// The tiny scenario writes a report file and renders the contrast table.
func TestRunTinyScenarioWritesReport(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if err := run([]string{"-scenario", "tiny", "-out", dir}, &out, &errOut); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "scenario tiny") {
		t.Fatalf("missing scenario header:\n%s", out.String())
	}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected one BENCH_*.json in %s, got %v (err %v)", dir, matches, err)
	}
	if fi, err := os.Stat(matches[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("report file %s empty or unreadable: %v", matches[0], err)
	}
}

// compare of a report against itself is clean (exit 0); against a
// missing file or a file that is not a scenario report it is a usage/IO
// error (exit 2).
func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-scenario", "tiny", "-out", dir}, &out, &out); err != nil {
		t.Fatalf("generating report: %v\n%s", err, out.String())
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if len(matches) != 1 {
		t.Fatalf("expected one report, got %v", matches)
	}
	rep := matches[0]

	var cout, cerr bytes.Buffer
	if code := runCompare([]string{rep, rep}, &cout, &cerr); code != 0 {
		t.Fatalf("self-compare exit %d, want 0\nstdout: %s\nstderr: %s", code, cout.String(), cerr.String())
	}
	if !strings.Contains(cout.String(), "no regressions") {
		t.Fatalf("self-compare output missing clean verdict:\n%s", cout.String())
	}

	if code := runCompare([]string{rep, filepath.Join(dir, "missing.json")}, &cout, &cerr); code != 2 {
		t.Fatalf("compare with missing file exit %d, want 2", code)
	}
	if code := runCompare([]string{rep}, &cout, &cerr); code != 2 {
		t.Fatalf("compare with one arg exit %d, want 2", code)
	}
	for name, body := range map[string]string{
		"kernels": `{"schema_version":2,"kind":"kernels","cores":2,"kernels":[]}`,
		"service": `{"schema_version":1,"kind":"service","cores":2,"lost":0}`,
	} {
		other := filepath.Join(dir, "other_"+name+".json")
		if err := os.WriteFile(other, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if code := runCompare([]string{rep, other}, &cout, &cerr); code != 2 {
			t.Fatalf("compare against a %s report exit %d, want 2", name, code)
		}
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "no-such-scenario", "-out", ""}, &out, &out); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
