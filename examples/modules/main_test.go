package main

import (
	"bytes"
	"strings"
	"testing"
)

// Each module's batch must match its one-at-a-time results.
func TestModules(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\noutput: %s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"merkle: 16 trees batch-generated",
		"sumcheck: 8 proofs batch-generated (8 rounds each)",
		"encoder: 12 codewords batch-generated",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}
