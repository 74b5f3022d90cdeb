package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eris"
	"eris/internal/client"
	"eris/internal/colstore"
	"eris/internal/prefixtree"
)

// backend executes requests: over eriswire (wireBackend) or in-process
// through the public API (coreBackend), so the same op stream and the same
// answer checks drive both.
type backend interface {
	lookup(obj string, keys []uint64) ([]prefixtree.KV, error)
	upsert(obj string, kvs []prefixtree.KV) error
	del(obj string, keys []uint64) error
	colScan(obj string, pred colstore.Predicate) (matched, sum uint64, err error)
}

type wireBackend struct{ c *client.Client }

func (b wireBackend) id(obj string) uint32 {
	info, _ := b.c.Object(obj)
	return info.ID
}

func (b wireBackend) lookup(obj string, keys []uint64) ([]prefixtree.KV, error) {
	return b.c.Lookup(b.id(obj), keys)
}
func (b wireBackend) upsert(obj string, kvs []prefixtree.KV) error { return b.c.Upsert(b.id(obj), kvs) }
func (b wireBackend) del(obj string, keys []uint64) error          { return b.c.Delete(b.id(obj), keys) }
func (b wireBackend) colScan(obj string, pred colstore.Predicate) (uint64, uint64, error) {
	agg, err := b.c.ColScan(b.id(obj), pred)
	return agg.Matched, agg.Sum, err
}

type coreBackend struct{ db *eris.DB }

func (b coreBackend) lookup(obj string, keys []uint64) ([]prefixtree.KV, error) {
	ix, err := b.db.Index(obj)
	if err != nil {
		return nil, err
	}
	return ix.Lookup(keys)
}

func (b coreBackend) upsert(obj string, kvs []prefixtree.KV) error {
	ix, err := b.db.Index(obj)
	if err != nil {
		return err
	}
	return ix.Upsert(kvs)
}

func (b coreBackend) del(obj string, keys []uint64) error {
	ix, err := b.db.Index(obj)
	if err != nil {
		return err
	}
	return ix.Delete(keys)
}

func (b coreBackend) colScan(obj string, pred colstore.Predicate) (uint64, uint64, error) {
	col, err := b.db.Column(obj)
	if err != nil {
		return 0, 0, err
	}
	res, err := col.Scan(pred)
	return res.Matched, res.Sum, err
}

// session is one load client: a backend, the client's model of the keys
// it owns (skewed-mixed-durable), and the expected scan answers (colscan).
type session struct {
	b     backend
	model *model
	rot   []scanSpec
	want  []scanAnswer
}

// accept lists the states a read of k may observe: the model's state,
// plus the effect of any write whose acknowledgement was lost.
func (s *session) accept(k uint64) []keyState {
	if s.model == nil {
		return denseState(k)
	}
	out := []keyState{s.model.get(k)}
	maybe := s.model.unresolved
	if s.model.pending != nil {
		maybe = append(maybe[:len(maybe):len(maybe)], s.model.pending)
	}
	for _, o := range maybe {
		if st, ok := effect(o, k); ok {
			out = append(out, st)
		}
	}
	return out
}

// exec performs o and checks its answer; a wrong answer is an *errWrong.
func (s *session) exec(o *op) error {
	switch o.kind {
	case opLookup:
		kvs, err := s.b.lookup(o.obj, o.keys)
		if err != nil {
			return err
		}
		o.replyKVs = len(kvs)
		return checkLookup(o.keys, kvs, s.accept)
	case opUpsert, opDelete:
		if s.model != nil {
			s.model.pending = o
		}
		var err error
		if o.kind == opUpsert {
			err = s.b.upsert(o.obj, o.kvs)
		} else {
			err = s.b.del(o.obj, o.keys)
		}
		if s.model != nil {
			s.model.pending = nil
			if err != nil {
				// The write may or may not have been applied.
				s.model.unresolved = append(s.model.unresolved, o)
			} else {
				s.model.apply(o)
			}
		}
		return err
	case opScan:
		spec := s.rot[o.scan]
		matched, sum, err := s.b.colScan(o.obj, spec.pred)
		if err != nil {
			return err
		}
		return checkScan(spec.label, matched, sum, s.want[o.scan])
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// tally counts requests across phases.
type tally struct {
	attempted, failed, wrong atomic.Int64
	firstWrong               atomic.Pointer[string]
}

// note records one request's outcome.
func (t *tally) note(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	var w *errWrong
	if errors.As(err, &w) {
		t.wrong.Add(1)
		msg := w.Error()
		t.firstWrong.CompareAndSwap(nil, &msg)
	}
}

// sample is one request's timing. In the open loop latency runs from the
// due time, so a stalled request also charges every request queued behind
// it.
type sample struct {
	due, sent, done time.Time
	err             error
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }
func (s sample) late() time.Duration    { return s.sent.Sub(s.due) }
func (s sample) rtt() time.Duration     { return s.done.Sub(s.sent) }

// openLoop sends request i on worker i % workers no earlier than
// start + due[i]; each worker has one request outstanding, so a slow reply
// delays that worker's later requests and shows as lateness. With recs,
// worker w records a request span and its loadgen.wait and client.call
// children into recs[w].
func openLoop(workers int, due []time.Duration, exec func(w, i int) error, recs []*recorder) []sample {
	out := make([]sample, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(due); i += workers {
				d := start.Add(due[i])
				if wait := time.Until(d); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				err := exec(w, i)
				done := time.Now()
				out[i] = sample{due: d, sent: sent, done: done, err: err}
				if recs != nil {
					root := recs[w].add("request", d, done, -1, int64(i))
					recs[w].add("loadgen.wait", d, sent, root, int64(i))
					recs[w].add("client.call", sent, done, root, int64(i))
				}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// closedLoop has every worker run exec back to back, n requests in all,
// until stop (if set) reports true; it returns the completed (successful)
// request count and the elapsed time. A fixed request count rather than a
// fixed time keeps the work of the phase, and so everything it leaves
// behind (such as a write-ahead log), the same however fast it runs.
func closedLoop(workers, n int, stop func() bool, exec func(w int) error) (int64, time.Duration) {
	var done atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && (stop == nil || !stop()); i += workers {
				if err := exec(w); err == nil {
					done.Add(1)
				} else if stop != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return done.Load(), time.Since(start)
}

// slotDue returns n due offsets at rate req/s: request i falls at a
// uniformly drawn point (u returns values in [0, 1)) of its own slot
// [i/rate, (i+1)/rate). Unlike Poisson arrivals this admits no bursts, so
// the tail measures the system rather than the schedule's luck; unlike
// even spacing it cannot phase-lock with a periodic poller in the server.
func slotDue(n int, rate float64, u func() float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration((float64(i) + u()) / rate * float64(time.Second))
	}
	return due
}
