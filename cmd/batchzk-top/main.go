// Command batchzk-top is the live operations console for a running
// batchzk process (batchzk-bench or the vml service) exposing the
// telemetry debug server. It polls /debug/obs/slo, /healthz, and /readyz
// and renders queue depth, per-stage throughput and latency, SLO
// attainment with fast/slow burn rates and error-budget balances, and
// the active alerts — the terminal analogue of an SRE dashboard.
//
// Usage:
//
//	batchzk-top -addr localhost:6060              # refresh every second
//	batchzk-top -addr localhost:6060 -interval 250ms
//	batchzk-top -addr localhost:6060 -once        # one frame, no clearing
//	batchzk-top -addr localhost:6060 -frames 10   # fixed number of frames
//	batchzk-top -addr localhost:6060 -plain       # never clear the screen
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"batchzk"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "batchzk-top:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("batchzk-top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:6060", "address of the target's telemetry debug server")
	interval := fs.Duration("interval", time.Second, "refresh period")
	frames := fs.Int("frames", 0, "number of frames to render (0 = until interrupted)")
	once := fs.Bool("once", false, "render one frame and exit (same as -frames 1 -plain)")
	plain := fs.Bool("plain", false, "never clear the screen between frames (log-friendly output)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-request HTTP timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *once {
		*frames = 1
		*plain = true
	}
	client := &http.Client{Timeout: *timeout}
	base := "http://" + strings.TrimPrefix(strings.TrimPrefix(*addr, "http://"), "https://")

	for n := 0; *frames == 0 || n < *frames; n++ {
		if n > 0 {
			time.Sleep(*interval)
		}
		frame, err := fetchFrame(client, base)
		if err != nil {
			// A target that is restarting or not yet serving is a state to
			// display, not a reason to die — unless this is a one-shot.
			if *frames == 1 {
				return err
			}
			if !*plain {
				fmt.Fprint(stdout, "\033[H\033[2J")
			}
			fmt.Fprintf(stdout, "batchzk-top: %s unreachable: %v\n", base, err)
			continue
		}
		if !*plain {
			fmt.Fprint(stdout, "\033[H\033[2J")
		}
		renderFrame(stdout, base, frame)
	}
	return nil
}

// frame is one poll's combined state.
type frame struct {
	healthy    bool
	obsEnabled bool
	ready      bool
	readyBody  readyz
	snap       *batchzk.ObsSnapshot
}

type healthz struct {
	Status string `json:"status"`
	Obs    bool   `json:"obs_enabled"`
}

type readyz struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason"`
}

func fetchFrame(client *http.Client, base string) (*frame, error) {
	var f frame

	var h healthz
	code, err := getJSON(client, base+"/healthz", &h)
	if err != nil {
		return nil, err
	}
	f.healthy = code == http.StatusOK && h.Status == "ok"
	f.obsEnabled = h.Obs

	code, err = getJSON(client, base+"/readyz", &f.readyBody)
	if err != nil {
		return nil, err
	}
	f.ready = code == http.StatusOK && f.readyBody.Ready

	var snap batchzk.ObsSnapshot
	code, err = getJSON(client, base+"/debug/obs/slo", &snap)
	if err == nil && code == http.StatusOK {
		f.snap = &snap
	}
	return &f, nil
}

func getJSON(client *http.Client, url string, v any) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return resp.StatusCode, fmt.Errorf("%s: bad JSON: %w", url, err)
	}
	return resp.StatusCode, nil
}

func renderFrame(w io.Writer, base string, f *frame) {
	status := "HEALTHY"
	if !f.healthy {
		status = "UNHEALTHY"
	}
	ready := "READY"
	if !f.ready {
		ready = "NOT READY — " + f.readyBody.Reason
	}
	fmt.Fprintf(w, "batchzk-top — %s — %s / %s\n", base, status, ready)

	if f.snap == nil {
		if !f.obsEnabled {
			fmt.Fprintln(w, "obs engine disabled on the target (start it with -log or -debug-addr)")
		} else {
			fmt.Fprintln(w, "no SLO snapshot available")
		}
		return
	}
	s := f.snap
	fmt.Fprintf(w, "uptime %s   jobs %d (failed %d)   queue depth %d   alerts raised %d\n",
		time.Duration(s.UptimeNs).Round(time.Second), s.Jobs.Total, s.Jobs.Failed,
		s.Jobs.QueueDepth, s.AlertsTotal)

	if len(s.Stages) > 0 {
		fmt.Fprintf(w, "\n%-18s %12s %12s %12s %10s\n", "STAGE", "RATE/S", "P50", "P99", "COUNT")
		for _, st := range s.Stages {
			fmt.Fprintf(w, "%-18s %12.1f %12s %12s %10d\n",
				st.Name, st.RatePerSec, fmtNs(st.P50Ns), fmtNs(st.P99Ns), st.Count)
		}
	}

	if len(s.Objectives) > 0 {
		fmt.Fprintf(w, "\n%-16s %-10s %14s %14s %8s %10s %10s %9s\n",
			"OBJECTIVE", "KIND", "VALUE", "TARGET", "MET", "FAST-BURN", "SLOW-BURN", "BUDGET")
		for _, o := range s.Objectives {
			value, target := fmtNs(o.Value), fmtNs(float64(o.TargetNs))
			if o.Kind == batchzk.ObsKindErrorRate {
				value = fmt.Sprintf("%.2f%%", o.Value*100)
				target = fmt.Sprintf("%.2f%%", o.TargetRate*100)
			}
			met := "yes"
			if !o.Met {
				met = "NO"
			}
			fmt.Fprintf(w, "%-16s %-10s %14s %14s %8s %10.2f %10.2f %8.1f%%\n",
				o.Name, o.Kind, value, target, met, o.FastBurn, o.SlowBurn, o.BudgetRemaining*100)
		}
	}

	if len(s.ActiveAlerts) > 0 {
		fmt.Fprintf(w, "\nACTIVE ALERTS (%d)\n", len(s.ActiveAlerts))
		alerts := append([]batchzk.ObsAlert(nil), s.ActiveAlerts...)
		sort.SliceStable(alerts, func(i, j int) bool {
			return alerts[i].Severity == batchzk.ObsSeverityCritical &&
				alerts[j].Severity != batchzk.ObsSeverityCritical
		})
		for _, a := range alerts {
			fmt.Fprintf(w, "  [%s] %s %s: %s\n", strings.ToUpper(a.Severity), a.Kind, a.Subject, a.Reason)
		}
	} else {
		fmt.Fprintln(w, "\nno active alerts")
	}
}

// fmtNs renders a nanosecond quantity as a rounded duration.
func fmtNs(ns float64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(10 * time.Nanosecond).String()
	}
}
