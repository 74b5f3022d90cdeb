package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"eris/internal/client"
	"eris/internal/metrics"
)

const (
	// A run sets the server up, and after the kill restarts it, at least
	// minLaunches times and until launchBudget has passed (at most
	// maxLaunches times); setup_s and recovery_s are medians. Short set-ups
	// get many launches, which evens out the netpoll and host noise that
	// weighs most on them.
	minLaunches  = 5
	maxLaunches  = 25
	launchBudget = 5 * time.Second
	// warmupReqs are closed-loop requests before anything is measured;
	// the closed-loop phase runs closedPerSecond requests per second of
	// the run's measuring time (about a fifth of it at the seed).
	warmupReqs      = 100
	closedPerSecond = 40
	idleWindow      = time.Second
	// lateLimit bounds loadgen.late_p99_ms: a run whose open-loop
	// generator fell further behind its schedule is invalid.
	lateLimit = 250 * time.Millisecond
	// verifyBatch is the lookup size of the post-restart state check.
	verifyBatch = 4096
	// Tails are reported as the median over tailWindows consecutive
	// windows of the phase of each window's tail percentile; at 20 s every
	// read window holds 200 or 220 samples (p95 is the highest with 10
	// beyond) and every write window 132 or 140 (p90).
	tailWindows = 5
	readTail    = 95 // read_p95_ms
	writeTail   = 90 // write_p90_ms
	clientTO    = 5 * time.Second
)

// errInvalid marks a run whose measurements are not the program's.
type errInvalid struct{ msg string }

func (e *errInvalid) Error() string { return "invalid run: " + e.msg }

type runConfig struct {
	wl      *workloadSpec
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory of this run, inside the checkout
	workers int    // load goroutines and connections (nproc)
}

// runner holds one run's state and results.
type runner struct {
	cfg   runConfig
	tally tally
	reg   *metrics.Registry // client.* counters of the load process
	tr    *tracer

	srv      *serverProc
	serving  *serverProc // the server the run's phases ran against
	dataDir  string
	aeus     int
	want     []scanAnswer
	sessions []*session
	clients  []*client.Client

	e2e    map[string]float64
	layers map[string]float64
	env    map[string]any
	notes  []string // human-readable lines for the report

	mainOps, probeOps []op // the last main stream and the write probe
	late              latencies
}

func newRunner(cfg runConfig) *runner {
	r := &runner{cfg: cfg, reg: metrics.NewRegistry(), e2e: map[string]float64{},
		layers: map[string]float64{}, env: map[string]any{}}
	if cfg.trace {
		r.tr = &tracer{base: time.Now()}
	}
	return r
}

func (r *runner) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// close stops every process and removes the run's scratch files.
func (r *runner) close() {
	r.closeClients()
	r.srv.kill()
	r.srv = nil
	_ = os.RemoveAll(r.cfg.dir)
}

func (r *runner) closeClients() {
	for _, c := range r.clients {
		c.Close()
	}
	r.clients, r.sessions = nil, nil
}

// start launches a server on dataDir and returns it with the time from
// launch to its first successful reply.
func (r *runner) start(dataDir string) (*serverProc, float64, error) {
	t0 := time.Now()
	p, err := launch(r.cfg.wl, r.cfg.seed, dataDir)
	if err != nil {
		return nil, 0, err
	}
	c, err := client.Dial(p.addr, client.Options{DefaultTimeout: clientTO})
	if err == nil {
		_, err = wireBackend{c}.lookup(objKV, []uint64{0})
		c.Close()
	}
	r.tally.note(err)
	if err != nil {
		p.kill()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	return p, time.Since(t0).Seconds(), nil
}

func (r *runner) run() error {
	cfg := r.cfg
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	if err := r.setup(); err != nil {
		return err
	}
	if cfg.trace {
		if err := r.idle(); err != nil {
			return err
		}
	}
	if err := r.connect(); err != nil {
		return err
	}
	snapStart, err := r.srv.snapshot()
	if err != nil {
		return err
	}
	servingStart := time.Now()
	r.closedPhase(warmupReqs, phaseWarmup)
	n, elapsed := r.closedPhase(int(closedPerSecond*cfg.seconds), phaseClosed)
	r.e2e["throughput_ops_s"] = float64(n) / elapsed.Seconds()
	r.notef("closed loop: %d clients, %d requests in %.2fs", cfg.workers, n, elapsed.Seconds())

	if _, err := r.mainPhase(false); err != nil {
		return err
	}
	if cfg.trace {
		// A traced pass after the untraced one: their difference is the
		// tracing overhead, and the per-layer figures come from it.
		ps, err := r.mainPhase(true)
		if err != nil {
			return err
		}
		if err := r.mainLayers(ps); err != nil {
			return err
		}
	}
	if cfg.wl.writeRate > 0 {
		if err := r.probePhase(); err != nil {
			return err
		}
	}
	snapEnd, err := r.srv.snapshot()
	if err != nil {
		return err
	}
	d := snapEnd.Delta(snapStart)
	r.layers["server.admitted"] = float64(d.Counter("server.admitted"))
	r.layers["server.shed"] = float64(d.Counter("server.shed"))
	r.layers["server.expired"] = float64(d.Counter("server.expired"))
	// The balancer's first cycles land early in the run, so its figures
	// cover all of the serving, not only the traced phase.
	r.layers["balance.evaluations_per_s"] = float64(d.Counter("balance.evaluations")) / time.Since(servingStart).Seconds()
	r.layers["balance.cycles"] = float64(d.Counter("balance.cycles"))
	r.layers["balance.timeouts"] = float64(d.Counter("balance.timeouts"))
	r.layers["balance.moved_tuples_est"] = float64(d.Counter("balance.moved_tuples_est"))
	r.layers["durable.checkpoint_bytes"] = float64(snapEnd.Counter("durable.checkpoint_bytes"))

	if err := r.crashAndRecover(); err != nil {
		return err
	}

	if err := r.lateCheck(); err != nil {
		return err
	}
	if cfg.trace {
		if err := r.coreReplay(); err != nil {
			return err
		}
		if err := r.standaloneLayers(); err != nil {
			return err
		}
	}
	return nil
}

// timedLaunches starts servers, each on the data directory dir returns,
// until minLaunches are done and launchBudget has passed (at most
// maxLaunches), and returns their launch-to-first-reply times. It kills
// every server but the last, which it hands to keep.
func (r *runner) timedLaunches(dir func(k int) (string, error), keep func(p *serverProc, dataDir string) error) ([]float64, error) {
	var times []float64
	start := time.Now()
	for k := 0; ; k++ {
		dataDir, err := dir(k)
		if err != nil {
			return nil, err
		}
		p, secs, err := r.start(dataDir)
		if err != nil {
			return nil, err
		}
		times = append(times, secs)
		if len(times) == maxLaunches || len(times) >= minLaunches && time.Since(start) >= launchBudget {
			return times, keep(p, dataDir)
		}
		p.kill()
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
	}
}

// setup times fresh server launches; setup_s is their median, and the
// last one serves the run.
func (r *runner) setup() error {
	times, err := r.timedLaunches(func(k int) (string, error) {
		return filepath.Join(r.cfg.dir, fmt.Sprintf("data-%d", k)), nil
	}, func(p *serverProc, dataDir string) error {
		r.srv, r.serving, r.dataDir, r.aeus = p, p, dataDir, p.aeus
		return nil
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.e2e["setup_s"] = median(times)
	r.env["server_gomaxprocs"] = r.srv.gomaxprocs
	r.env["aeus"] = r.aeus
	r.env["setup_launches"] = len(times)
	r.notef("setup: %d launches, %.3f s", len(times), times)
	if r.cfg.wl.name == "colscan" {
		r.want = expectedScans(r.cfg.seed, r.aeus)
	}
	return nil
}

// idle measures the server's CPU use with no requests in flight.
func (r *runner) idle() error {
	c0, err := r.srv.cpuSeconds()
	if err != nil {
		return err
	}
	t0 := time.Now()
	time.Sleep(idleWindow)
	c1, err := r.srv.cpuSeconds()
	if err != nil {
		return err
	}
	r.layers["aeu.idle_cpu_cores"] = (c1 - c0) / time.Since(t0).Seconds()
	return nil
}

// connect dials one client per load worker.
func (r *runner) connect() error {
	for w := 0; w < r.cfg.workers; w++ {
		c, err := client.Dial(r.srv.addr, client.Options{DefaultTimeout: clientTO, Metrics: r.reg})
		if err != nil {
			return err
		}
		r.clients = append(r.clients, c)
		r.sessions = append(r.sessions, r.newSession(wireBackend{c}))
	}
	return nil
}

// newSession returns a load client on b with what it needs to check the
// workload's answers.
func (r *runner) newSession(b backend) *session {
	s := &session{b: b, rot: scanRotation(r.aeus), want: r.want}
	if r.cfg.wl.name == "skewed-mixed-durable" {
		s.model = newModel()
	}
	return s
}

// generators returns one request generator per load worker for a phase.
func (r *runner) generators(phase int) []*generator {
	gens := make([]*generator, r.cfg.workers)
	for w := range gens {
		gens[w] = newGenerator(r.cfg.wl, r.cfg.seed, w, r.cfg.workers, r.aeus, phase)
	}
	return gens
}

// closedPhase runs n requests of the main stream closed-loop.
func (r *runner) closedPhase(n, phase int) (int64, time.Duration) {
	gens := r.generators(phase)
	return closedLoop(r.cfg.workers, n, nil, func(w int) error {
		o := gens[w].next()
		err := r.sessions[w].exec(&o)
		r.tally.note(err)
		return err
	})
}

// schedule pre-generates an open-loop phase: n requests from next and
// their due times at rate.
func (r *runner) schedule(phase, n int, rate float64, next func(g *generator) op) ([]op, []time.Duration) {
	gens := r.generators(phase)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = next(gens[i%r.cfg.workers])
	}
	rng := rand.New(rand.NewSource(phaseSeed(r.cfg.seed, phase, -1)))
	return ops, slotDue(n, rate, rng.Float64)
}

// openPhase runs ops open-loop, recording request spans when traced.
func (r *runner) openPhase(ops []op, due []time.Duration, traced bool) []sample {
	recs := make([]*recorder, r.cfg.workers)
	if traced {
		for w := range recs {
			recs[w] = r.tr.recorder()
		}
	}
	samples := openLoop(r.cfg.workers, due, func(w, i int) error {
		err := r.sessions[w].exec(&ops[i])
		r.tally.note(err)
		return err
	}, recs)
	for _, s := range samples {
		r.late.add(s.late())
	}
	return samples
}

// phaseCount is the request count of a phase given its share of the run.
func (r *runner) phaseCount(rate, share float64) int {
	return int(math.Round(rate * share * r.cfg.seconds))
}

// mainPhase runs the main stream open-loop at the workload's offered rate
// and records the end-to-end latency and CPU metrics. With trace set it
// records spans and returns the server snapshot delta around the phase.
func (r *runner) mainPhase(trace bool) (phaseStats, error) {
	var ps phaseStats
	wl := r.cfg.wl
	n := r.phaseCount(wl.readRate, wl.readShare)
	phase := phaseOpen
	if trace {
		phase = phaseOpenTraced
	}
	ops, due := r.schedule(phase, n, wl.readRate, (*generator).next)
	before, err := r.srv.snapshot()
	if err != nil {
		return ps, err
	}
	cpu0, err := r.srv.cpuSeconds()
	if err != nil {
		return ps, err
	}
	t0 := time.Now()
	samples := r.openPhase(ops, due, trace)
	ps.wall = time.Since(t0)
	cpu1, err := r.srv.cpuSeconds()
	if err != nil {
		return ps, err
	}
	after, err := r.srv.snapshot()
	if err != nil {
		return ps, err
	}
	ps.before, ps.after, ps.ops, ps.samples = before, after, ops, samples
	for _, s := range samples {
		if s.err == nil {
			ps.completed++
		}
	}
	reads, writes := splitLatencies(ops, samples)
	p50 := reads.pct(50)
	r.mainOps = ops
	if trace {
		// The traced pass only reports its difference from the untraced one.
		r.layers["trace.overhead_read_p50_ms"] = p50 - r.e2e["read_p50_ms"]
		return ps, nil
	}
	r.e2e["read_p50_ms"] = p50
	if r.e2e["read_p95_ms"], err = reads.windowTail(tailWindows, readTail); err != nil {
		return ps, fmt.Errorf("read latency: %w", err)
	}
	r.e2e["cpu_ms_per_op"] = (cpu1 - cpu0) * 1000 / float64(max(ps.completed, 1))
	r.env["read_samples"] = reads.n()
	r.env["read_tail_window_samples"] = reads.n() / tailWindows
	r.notef("open loop: %d requests at %g req/s offered over %.2fs, %d reads, %d writes",
		n, wl.readRate, ps.wall.Seconds(), reads.n(), writes.n())
	if writes.n() > 0 {
		if err := r.writeMetrics(writes); err != nil {
			return ps, err
		}
	}
	return ps, nil
}

// probePhase runs the write probe open-loop (workloads whose main stream
// has no writes).
func (r *runner) probePhase() error {
	wl := r.cfg.wl
	n := r.phaseCount(wl.writeRate, wl.writeShare)
	ops, due := r.schedule(phaseProbe, n, wl.writeRate, (*generator).probe)
	samples := r.openPhase(ops, due, false)
	r.probeOps = ops
	_, writes := splitLatencies(ops, samples)
	r.notef("write probe: %d upserts at %g req/s offered", n, wl.writeRate)
	return r.writeMetrics(writes)
}

func (r *runner) writeMetrics(writes *latencies) error {
	var err error
	r.e2e["write_p50_ms"] = writes.pct(50)
	if r.e2e["write_p90_ms"], err = writes.windowTail(tailWindows, writeTail); err != nil {
		return fmt.Errorf("write latency: %w", err)
	}
	r.env["write_samples"] = writes.n()
	r.env["write_tail_window_samples"] = writes.n() / tailWindows
	return nil
}

// splitLatencies separates read and write request latencies.
func splitLatencies(ops []op, samples []sample) (reads, writes *latencies) {
	reads, writes = &latencies{}, &latencies{}
	for i, s := range samples {
		l := reads
		if ops[i].kind.isWrite() {
			l = writes
		}
		if s.err != nil {
			l.addFailed()
		} else {
			l.add(s.latency())
		}
	}
	return reads, writes
}

// lateCheck marks the run invalid when the open-loop generator fell behind
// its schedule by more than lateLimit at p99.
func (r *runner) lateCheck() error {
	p99 := r.late.pct(99)
	r.layers["loadgen.late_p99_ms"] = p99
	r.env["late_p99_ms"] = p99
	if p99 > float64(lateLimit)/1e6 {
		return &errInvalid{fmt.Sprintf("open-loop generator ran %.1f ms behind schedule at p99 (limit %v); the offered rate is not sustained", p99, lateLimit)}
	}
	return nil
}

// crashAndRecover kills the serving server with kill -9 (its peak RSS is
// server_rss_mb) and times restarts to their first served request. On
// skewed-mixed-durable the kill lands in the middle of a write stream,
// each restart recovers from a copy of the killed server's data directory,
// and after the last one every key must hold its last acknowledged write
// or a later unacknowledged one.
func (r *runner) crashAndRecover() error {
	wl := r.cfg.wl
	if wl.durable {
		r.killDuringWrites()
	} else {
		r.srv.kill()
	}
	r.srv = nil
	sessions := r.sessions
	r.closeClients()
	times, err := r.timedLaunches(func(k int) (string, error) {
		dataDir := filepath.Join(r.cfg.dir, fmt.Sprintf("restart-%d", k))
		if wl.durable {
			return dataDir, copyDir(r.dataDir, dataDir)
		}
		return dataDir, nil
	}, func(p *serverProc, dataDir string) error {
		r.srv = p
		if err := r.afterRecovery(sessions); err != nil {
			return err
		}
		r.srv.kill()
		r.srv = nil
		return os.RemoveAll(dataDir)
	})
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	r.e2e["recovery_s"] = median(times)
	r.env["recovery_launches"] = len(times)
	r.notef("recovery: %d restarts, %.3f s", len(times), times)
	if r.serving.peakMB == 0 {
		return fmt.Errorf("no peak RSS read from the serving server")
	}
	r.e2e["server_rss_mb"] = r.serving.peakMB
	return nil
}

// afterRecovery checks the recovered contents and reads the restarted
// server's recovery counters.
func (r *runner) afterRecovery(sessions []*session) error {
	if r.cfg.wl.durable {
		if err := r.verifyRecovered(sessions); err != nil {
			return err
		}
	}
	snap, err := r.srv.snapshot()
	if err != nil {
		return err
	}
	r.layers["durable.replay_records"] = float64(snap.Counter("durable.replay_records"))
	r.layers["durable.recovery_ns"] = float64(snap.Counter("durable.recovery_ns"))
	return nil
}

// copyDir copies the regular files of the directory tree src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// killDuringWrites runs the mixed stream closed-loop and kills the server
// once killAfterAcks writes were acknowledged in this phase.
func (r *runner) killDuringWrites() {
	gens := r.generators(phaseKill)
	var acked atomic.Int64
	var killed atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	srv, killDone := r.srv, make(chan struct{})
	go func() {
		defer close(killDone)
		for acked.Load() < killAfterAcks && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		// The flag goes up first, so every error seen while it is down
		// is a real failure.
		killed.Store(true)
		srv.kill()
	}()
	closedLoop(r.cfg.workers, math.MaxInt, killed.Load, func(w int) error {
		o := gens[w].next()
		err := r.sessions[w].exec(&o)
		if err == nil || !killed.Load() {
			// Requests cut off by the kill are expected, not failures.
			r.tally.note(err)
		}
		if err == nil && o.kind.isWrite() {
			acked.Add(1)
		}
		return err
	})
	cancel()
	<-killDone
}

// verifyRecovered reads back every hot-range key and a sample of cold keys
// from the restarted server and checks them against the clients' models.
func (r *runner) verifyRecovered(sessions []*session) error {
	c, err := client.Dial(r.srv.addr, client.Options{DefaultTimeout: clientTO, Metrics: r.reg})
	if err != nil {
		return err
	}
	defer c.Close()
	b := wireBackend{c}
	hot := uint64(indexKeys / hotFrac)
	// A wrong answer is counted and the check goes on; a failed request
	// ends it.
	check := func(keys []uint64, accept func(uint64) []keyState) error {
		kvs, err := b.lookup(objKV, keys)
		if err == nil {
			r.tally.note(checkLookup(keys, kvs, accept))
			return nil
		}
		r.tally.note(err)
		return err
	}
	owner := func(k uint64) []keyState { return sessions[k%uint64(len(sessions))].accept(k) }
	for lo := uint64(0); lo < hot; lo += verifyBatch {
		keys := make([]uint64, 0, verifyBatch)
		for k := lo; k < min(lo+verifyBatch, hot); k++ {
			keys = append(keys, k)
		}
		if err := check(keys, owner); err != nil {
			return fmt.Errorf("after recovery: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	for i := 0; i < 4; i++ {
		keys := make([]uint64, verifyBatch)
		lo := hot + uint64(rng.Int63n(int64(indexKeys-hot-verifyBatch)))
		for j := range keys {
			keys[j] = lo + uint64(j)
		}
		if err := check(keys, denseState); err != nil {
			return fmt.Errorf("after recovery: %w", err)
		}
	}
	return nil
}
