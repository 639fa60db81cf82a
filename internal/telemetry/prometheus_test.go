package telemetry

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Exposition-grammar line shapes (text format v0.0.4). Every non-blank
// line must match exactly one of these.
var (
	promHelpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$`)
	promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? -?(\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$`)
)

func promRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.Counter("gpusim/runs/pipelined").Add(3)
	r.Counter("host/bytes_in").Add(1 << 20)
	g := r.Gauge("mem/peak_bytes")
	g.Set(4096)
	g.Set(1024)
	h := r.Histogram("task/latency_ns")
	for _, v := range []int64{10, 20, 300, 4000, 4000, 50000} {
		h.Observe(v)
	}
	return r
}

func TestPrometheusGrammar(t *testing.T) {
	r := promRegistry(t)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("exposition must end with a newline")
	}

	typed := map[string]string{} // family -> TYPE
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !promHelpRe.MatchString(line) {
				t.Fatalf("malformed HELP line: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			if !promTypeRe.MatchString(line) {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			f := strings.Fields(line)
			if _, dup := typed[f[2]]; dup {
				t.Fatalf("family %q declared twice", f[2])
			}
			typed[f[2]] = f[3]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment line: %q", line)
		default:
			if !promSampleRe.MatchString(line) {
				t.Fatalf("malformed sample line: %q", line)
			}
			// Every sample must belong to a declared family: its name,
			// or its name minus a histogram suffix.
			name := line[:strings.IndexAny(line, "{ ")]
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if cut, ok := strings.CutSuffix(name, suf); ok && typed[cut] == "histogram" {
					base = cut
				}
			}
			if _, ok := typed[base]; !ok {
				t.Fatalf("sample %q has no TYPE declaration", name)
			}
			if !strings.HasPrefix(name, promPrefix+"_") {
				t.Fatalf("sample %q not namespaced under %s_", name, promPrefix)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Mapping spot checks.
	for _, want := range []string{
		"# TYPE batchzk_gpusim_runs_pipelined_total counter",
		"batchzk_gpusim_runs_pipelined_total 3",
		"# TYPE batchzk_mem_peak_bytes gauge",
		"batchzk_mem_peak_bytes 1024",
		"batchzk_mem_peak_bytes_peak 4096",
		"# TYPE batchzk_task_latency_ns histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if !r.promNamesUnique() {
		t.Fatal("sanitized names collide")
	}
}

func TestPrometheusHistogramInvariants(t *testing.T) {
	r := promRegistry(t)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}

	const fam = "batchzk_task_latency_ns"
	var (
		prevLe  float64
		prevCum int64 = -1
		infSeen bool
		infVal  int64
		count   int64 = -1
		sum     int64 = -1
	)
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, fam+"_bucket{le=\""):
			rest := strings.TrimPrefix(line, fam+"_bucket{le=\"")
			le, val, ok := strings.Cut(rest, "\"} ")
			if !ok {
				t.Fatalf("bad bucket line %q", line)
			}
			cum, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", val, err)
			}
			if cum < prevCum {
				t.Fatalf("bucket counts not cumulative: %d after %d", cum, prevCum)
			}
			prevCum = cum
			if le == "+Inf" {
				infSeen, infVal = true, cum
				continue
			}
			if infSeen {
				t.Fatal("+Inf bucket must come last")
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("le %q: %v", le, err)
			}
			if bound <= prevLe {
				t.Fatalf("le bounds not increasing: %v after %v", bound, prevLe)
			}
			prevLe = bound
		case strings.HasPrefix(line, fam+"_count "):
			count, _ = strconv.ParseInt(strings.TrimPrefix(line, fam+"_count "), 10, 64)
		case strings.HasPrefix(line, fam+"_sum "):
			sum, _ = strconv.ParseInt(strings.TrimPrefix(line, fam+"_sum "), 10, 64)
		}
	}
	if !infSeen {
		t.Fatal("histogram has no +Inf bucket")
	}
	if count != infVal {
		t.Fatalf("_count %d != +Inf bucket %d", count, infVal)
	}
	if count != 6 {
		t.Fatalf("_count = %d, want 6", count)
	}
	if sum != 10+20+300+4000+4000+50000 {
		t.Fatalf("_sum = %d", sum)
	}
}

func TestPrometheusNameSanitization(t *testing.T) {
	cases := map[string]string{
		"gpusim/task/latency_ns": "batchzk_gpusim_task_latency_ns",
		"simple":                 "batchzk_simple",
		"with-dash.dot":          "batchzk_with_dash_dot",
		"colon:kept":             "batchzk_colon:kept",
		"unicode→arrow":          "batchzk_unicode_arrow",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := promEscapeHelp("a\\b\nc"); got != `a\\b\nc` {
		t.Fatalf("promEscapeHelp = %q", got)
	}
}

func TestPrometheusNilAndEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (*Registry)(nil).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q", buf.String())
	}
	if err := NewRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty registry wrote %q", buf.String())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	defer Enable(nil)
	s := NewSink(Config{})
	s.Metrics.Counter("http/test").Inc()
	srv := httptest.NewServer(DebugHandler(s))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q lacks exposition version", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "batchzk_http_test_total 1") {
		t.Fatalf("endpoint output missing counter:\n%s", buf.String())
	}

	// With no sink at all the endpoint degrades to 503, not a panic.
	srv2 := httptest.NewServer(DebugHandler(nil))
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("disabled telemetry: status %d, want 503", resp2.StatusCode)
	}
}
