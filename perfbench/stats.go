package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile; a percentile with fewer is not supported by the sample.
const minBeyond = 10

// tailCandidates are the percentiles a tail may be named after, highest
// first.
var tailCandidates = []float64{99.99, 99.9, 99.5, 99, 98, 97, 95, 90}

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples. The epsilon keeps float error in p/100*n (0.999*10000
// is 9990.000000000002) from pushing an exact rank up by one.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// supported reports whether n samples leave at least minBeyond samples
// beyond percentile p.
func supported(p float64, n int) bool {
	return n > 0 && n-rank(p, n) >= minBeyond
}

// tailPercentile returns the highest candidate percentile that n samples
// support, or 0 when even the lowest candidate is unsupported.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if supported(p, n) {
			return p
		}
	}
	return 0
}

// latencies is one class of timed requests. Failed requests are kept as
// +Inf, so a failure counts as missing every latency limit.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/1e6) }
func (l *latencies) addFailed()          { l.ms = append(l.ms, math.Inf(1)) }
func (l *latencies) n() int              { return len(l.ms) }
func (l *latencies) sorted() []float64 {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	return s
}
func (l *latencies) pct(p float64) float64 { return percentile(l.sorted(), p) }

// tail returns the value at percentile p, failing when the sample does not
// support p under the minBeyond rule. Metric names carry a fixed
// percentile, so a run too short to support it is an error, not a
// silently different statistic.
func (l *latencies) tail(p float64) (float64, error) {
	if !supported(p, l.n()) {
		return 0, fmt.Errorf("%d samples do not support p%g (need %d beyond it; highest supported is p%g)",
			l.n(), p, minBeyond, tailPercentile(l.n()))
	}
	return l.pct(p), nil
}

// windowTail splits the samples, in request order, into consecutive windows
// and returns the median over the windows of each window's p-th
// percentile. Every window must support p; the median of several windows'
// tails is much steadier from run to run than one tail of all samples.
func (l *latencies) windowTail(windows int, p float64) (float64, error) {
	per := l.n() / windows
	if per == 0 {
		return 0, fmt.Errorf("%d samples cannot fill %d windows", l.n(), windows)
	}
	tails := make([]float64, windows)
	for w := range tails {
		win := latencies{ms: l.ms[w*per : (w+1)*per]}
		v, err := win.tail(p)
		if err != nil {
			return 0, fmt.Errorf("window %d of %d: %w", w+1, windows, err)
		}
		tails[w] = v
	}
	return median(tails), nil
}

// percentile returns the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// median of unsorted values.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
