package main

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"eris/internal/colstore"
	"eris/internal/prefixtree"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99},   // rank 990 leaves exactly 10 beyond
		{999, 98},    // p99 would leave 9
		{500, 98},    // rank 490 leaves 10
		{499, 97},    // p98 would leave 9
		{2000, 99.5}, // rank 1990 leaves 10
		{10000, 99.9},
		{100, 90},
		{99, 0}, // not even p90 has 10 beyond
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestTailRefusesUnsupportedPercentile(t *testing.T) {
	var l latencies
	for i := 0; i < 999; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	if _, err := l.tail(99); err == nil {
		t.Fatal("p99 of 999 samples was reported")
	}
	l.add(999 * time.Millisecond)
	v, err := l.tail(99)
	if err != nil {
		t.Fatal(err)
	}
	if v != 989 { // the 990th smallest of 0..999 ms
		t.Fatalf("p99 = %g ms, want 989", v)
	}
}

// A tail is the median over windows of each window's tail, and every
// window must support the percentile on its own.
func TestWindowTail(t *testing.T) {
	var l latencies
	for w := 0; w < 5; w++ {
		for i := 0; i < 200; i++ {
			// Window w's p95 (the 190th of its 200 samples) is 189+w ms.
			l.add(time.Duration(i+w) * time.Millisecond)
		}
	}
	v, err := l.windowTail(5, 95)
	if err != nil {
		t.Fatal(err)
	}
	if v != 191 {
		t.Fatalf("windowed p95 = %g ms, want 191 (the median of 189..193)", v)
	}
	if _, err := l.windowTail(5, 97); err == nil {
		t.Fatal("p97 of 200-sample windows was reported")
	}
}

// A stalled request must charge the requests queued behind it: their
// latency runs from when they were due, not from when they could be sent.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const n, gap, stalled = 12, 2 * time.Millisecond, 4
	const stall = 60 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	samples := openLoop(1, due, func(_, i int) error {
		if i == stalled {
			time.Sleep(stall)
		}
		return nil
	}, nil)
	if l := samples[stalled].latency(); l < stall {
		t.Fatalf("stalled request latency %v < stall %v", l, stall)
	}
	for i := stalled + 1; i < n; i++ {
		// Request i was due (i-stalled)*gap after the stalled one, which
		// returned stall later, so it waited at least the difference.
		minWait := stall - time.Duration(i-stalled)*gap
		if l := samples[i].latency(); l < minWait {
			t.Errorf("request %d latency %v, want at least %v", i, l, minWait)
		}
		if late := samples[i].late(); late < minWait {
			t.Errorf("request %d sent %v late, want at least %v", i, late, minWait)
		}
		if rtt := samples[i].rtt(); rtt > stall/2 {
			t.Errorf("request %d rtt %v includes the queueing", i, rtt)
		}
	}
}

func TestFailureAccounting(t *testing.T) {
	var tl tally
	tl.note(nil)
	tl.note(errors.New("connection reset"))
	tl.note(wrongf("key %d", 7))
	tl.note(nil)
	if a, f, w := tl.attempted.Load(), tl.failed.Load(), tl.wrong.Load(); a != 4 || f != 2 || w != 1 {
		t.Fatalf("attempted/failed/wrong = %d/%d/%d, want 4/2/1", a, f, w)
	}
	if p := tl.firstWrong.Load(); p == nil || *p != "wrong answer: key 7" {
		t.Fatalf("first wrong answer not kept: %v", p)
	}

	// A failed request counts as missing every latency limit.
	ops := []op{{kind: opLookup}, {kind: opLookup}, {kind: opUpsert}}
	now := time.Now()
	ok := sample{due: now, sent: now, done: now.Add(time.Millisecond)}
	samples := []sample{ok, {due: now, sent: now, done: now, err: errors.New("timeout")}, ok}
	reads, writes := splitLatencies(ops, samples)
	if reads.n() != 2 || writes.n() != 1 {
		t.Fatalf("split %d reads, %d writes", reads.n(), writes.n())
	}
	if !math.IsInf(reads.pct(100), 1) {
		t.Fatalf("failed read's latency is %g, want +Inf", reads.pct(100))
	}
}

// fakeBackend answers like a correct engine except where a test plants a
// wrong answer.
type fakeBackend struct {
	values  map[uint64]uint64 // overrides of the dense load
	dropKey uint64            // a key the lookup omits (0 = none)
	scanOff uint64            // added to every scan's matched count
}

func (f *fakeBackend) lookup(_ string, keys []uint64) ([]prefixtree.KV, error) {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	var out []prefixtree.KV
	for _, k := range sorted {
		if k == f.dropKey && k != 0 {
			continue
		}
		v, ok := f.values[k]
		if !ok {
			v = k
		}
		out = append(out, prefixtree.KV{Key: k, Value: v})
	}
	return out, nil
}

func (f *fakeBackend) upsert(_ string, kvs []prefixtree.KV) error {
	for _, kv := range kvs {
		f.values[kv.Key] = kv.Value
	}
	return nil
}

func (f *fakeBackend) del(string, []uint64) error { return errors.New("not supported") }

func (f *fakeBackend) colScan(_ string, pred colstore.Predicate) (uint64, uint64, error) {
	want := scanRotation(2)
	for i, s := range want {
		if s.pred == pred {
			a := expectedScans(1, 2)[i]
			return a.matched + f.scanOff, a.sum, nil
		}
	}
	return 0, 0, errors.New("unknown predicate")
}

func isWrong(err error) bool {
	var w *errWrong
	return errors.As(err, &w)
}

func TestPlantedWrongLookupIsCaught(t *testing.T) {
	o := op{kind: opLookup, obj: objKV, keys: []uint64{9, 3, 5}}
	good := &session{b: &fakeBackend{values: map[uint64]uint64{}}}
	if err := good.exec(&o); err != nil {
		t.Fatalf("correct lookup rejected: %v", err)
	}
	for name, fb := range map[string]*fakeBackend{
		"wrong value": {values: map[uint64]uint64{5: 6}},
		"missing key": {values: map[uint64]uint64{}, dropKey: 9},
	} {
		s := &session{b: fb}
		if err := s.exec(&o); !isWrong(err) {
			t.Errorf("%s: got %v, want a wrong answer", name, err)
		}
	}
	extra := checkLookup([]uint64{1}, []prefixtree.KV{{Key: 1, Value: 1}, {Key: 2, Value: 2}}, denseState)
	if !isWrong(extra) {
		t.Errorf("a reply with an unrequested key was accepted: %v", extra)
	}
}

// A client's model must reject a read that misses its own acknowledged
// write, and after a crash accept the write whose ack was lost.
func TestModelChecksOwnWrites(t *testing.T) {
	fb := &fakeBackend{values: map[uint64]uint64{}}
	s := &session{b: fb, model: newModel()}
	up := op{kind: opUpsert, obj: objKV, kvs: []prefixtree.KV{{Key: 4, Value: 1 << 56}}}
	if err := s.exec(&up); err != nil {
		t.Fatal(err)
	}
	read := op{kind: opLookup, obj: objKV, keys: []uint64{4}}
	if err := s.exec(&read); err != nil {
		t.Fatalf("read of an acknowledged write rejected: %v", err)
	}
	fb.values[4] = 4 // the write is lost
	if err := s.exec(&read); !isWrong(err) {
		t.Fatalf("lost acknowledged write not caught: %v", err)
	}
	// A write in flight at the crash may or may not have landed.
	s.model.pending = &op{kind: opUpsert, kvs: []prefixtree.KV{{Key: 4, Value: 2 << 56}}}
	fb.values[4] = 2 << 56
	if err := s.exec(&read); err != nil {
		t.Fatalf("unacknowledged later write rejected: %v", err)
	}
	fb.values[4] = 1 << 56
	if err := s.exec(&read); err != nil {
		t.Fatalf("last acknowledged write rejected: %v", err)
	}
}

func TestPlantedWrongScanIsCaught(t *testing.T) {
	rot := scanRotation(2)
	want := expectedScans(1, 2)
	for i := range rot {
		o := op{kind: opScan, obj: rot[i].column, scan: i}
		if err := (&session{b: &fakeBackend{}, rot: rot, want: want}).exec(&o); err != nil {
			t.Fatalf("%s: correct scan rejected: %v", rot[i].label, err)
		}
		if err := (&session{b: &fakeBackend{scanOff: 1}, rot: rot, want: want}).exec(&o); !isWrong(err) {
			t.Fatalf("%s: planted wrong count not caught: %v", rot[i].label, err)
		}
	}
}

// The clustered column's expected answers follow from value = position.
func TestExpectedClusteredScans(t *testing.T) {
	const aeus = 3
	rot, want := scanRotation(aeus), expectedScans(5, aeus)
	n := colTuples(aeus)
	for i, s := range rot {
		if s.column != objClustered {
			continue
		}
		x := n
		if s.pred.Op == colstore.Less {
			x = s.pred.Operand
		}
		if want[i].matched != x || want[i].sum != x*(x-1)/2 {
			t.Errorf("%s: matched %d sum %d, want %d and %d", s.label, want[i].matched, want[i].sum, x, x*(x-1)/2)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "loadgen.wait", Start: 0, End: 30, Parent: 0},
		{Name: "client.call", Start: 30, End: 100, Parent: 0},
		{Name: "request", Start: 200, End: 300, Parent: -1},
		{Name: "client.call", Start: 220, End: 290, Parent: 3},
	}
	self := selfTimes(spans)
	if got := self["request"]; got.n != 2 || got.totalNS != 30 {
		t.Fatalf("request self = %+v, want 2 spans, 30 ns", got)
	}
	if got := self["client.call"]; got.totalNS != 140 {
		t.Fatalf("client.call self = %+v, want 140 ns", got)
	}
}
