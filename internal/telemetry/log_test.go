package telemetry

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// TestLogEventSchema pins the JSON log contract: time, level, msg and
// component on every record, and fixed attribute names.
func TestLogEventSchema(t *testing.T) {
	var buf bytes.Buffer
	clk := &fakeClock{ns: int64(time.Hour)}
	e := NewSink(Config{Now: clk.now, LogOutput: &buf})
	e.Event(slog.LevelWarn, "core", "job.failed",
		Job(7), Trace(42), Stage("opening"), Shard(2), Err(nil))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		for _, key := range []string{"time", "level", "msg", "component"} {
			if _, ok := rec[key]; !ok {
				t.Fatalf("log record missing %q: %q", key, line)
			}
		}
	}
	last := lines[len(lines)-1]
	var rec map[string]any
	_ = json.Unmarshal([]byte(last), &rec)
	if rec["msg"] != "job.failed" || rec["component"] != "core" {
		t.Fatalf("event record: %q", last)
	}
	if rec["job_id"] != float64(7) || rec["trace_id"] != float64(42) ||
		rec["stage"] != "opening" || rec["shard"] != float64(2) ||
		rec["error"] != "" {
		t.Fatalf("attr names drifted: %q", last)
	}
}
