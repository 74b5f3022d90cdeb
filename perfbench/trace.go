package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced interval. Parent indexes the same trace's span list
// (-1 for a root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// recorder keeps one goroutine's spans in memory. A nil recorder records
// nothing, which is how untraced runs pass it around.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder(base time.Time) *recorder {
	return &recorder{base: base, spans: make([]span, 0, 4096)}
}

// add records a span and returns its index (-1 on a nil recorder).
func (r *recorder) add(name string, start, end time.Time, parent int, req int64) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.base).Nanoseconds(),
		End: end.Sub(r.base).Nanoseconds(), Parent: parent, Req: req})
	return len(r.spans) - 1
}

// tracer collects the recorders of one run.
type tracer struct {
	base time.Time
	recs []*recorder
}

// recorder returns a fresh recorder, or nil when t is nil (untraced).
func (t *tracer) recorder() *recorder {
	if t == nil {
		return nil
	}
	r := newRecorder(t.base)
	t.recs = append(t.recs, r)
	return r
}

// merged returns every span with parents re-indexed into one list.
func (t *tracer) merged() []span {
	var out []span
	for _, r := range t.recs {
		off := len(out)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// selfStat is one span name's self time.
type selfStat struct {
	n       int
	totalNS int64
}

func (s selfStat) meanMS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.totalNS) / float64(s.n) / 1e6
}

// selfTimes returns each span name's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) map[string]selfStat {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]selfStat)
	for i, s := range spans {
		self := s.End - s.Start - covered(s.Start, s.End, children[i])
		st := out[s.Name]
		st.n++
		st.totalNS += self
		out[s.Name] = st
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans stores the spans as JSON.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
