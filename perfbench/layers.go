package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"eris"
	"eris/internal/colstore"
	"eris/internal/durable"
	"eris/internal/mem"
	"eris/internal/metrics"
	"eris/internal/numasim"
	"eris/internal/prefixtree"
	"eris/internal/topology"
	"eris/internal/wire"
)

// Standalone-pass sizes: how much of the run's op stream each layer pass
// replays.
const (
	wireRounds    = 20
	colPassScans  = 100
	durablePassOp = 200
)

// spanNames are the spans whose self time the traced run reports.
var spanNames = []string{
	"loadgen.wait", "client.call", "core.call", "wire.encode", "wire.decode",
	"prefixtree.lookup", "prefixtree.upsert", "prefixtree.delete",
	"colstore.scan", "durable.append", "durable.flush",
}

// phaseStats is what the traced main phase hands to the per-layer
// accounting: server metrics around it and its requests.
type phaseStats struct {
	before, after metrics.Snapshot
	wall          time.Duration
	ops           []op
	samples       []sample
	completed     int
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mainLayers derives the per-layer figures of the traced main phase from
// the server's metrics snapshot delta and the request spans.
func (r *runner) mainLayers(ps phaseStats) error {
	L := r.layers
	d := ps.after.Delta(ps.before)
	sum := func(prefix, suffix string) float64 { return float64(d.SumCounters(prefix, suffix)) }
	counter := func(name string) float64 { return float64(d.Counter(name)) }
	n := float64(ps.completed)

	var rtts latencies
	var scans, userBytes float64
	for i, s := range ps.samples {
		if s.err != nil {
			continue
		}
		rtts.add(s.rtt())
		switch o := ps.ops[i]; o.kind {
		case opScan:
			scans++
		case opUpsert:
			userBytes += float64(16 * len(o.kvs))
		case opDelete:
			userBytes += float64(8 * len(o.keys))
		}
	}
	L["client.rtt_p50_ms"] = rtts.pct(50)
	var err error
	if L["client.rtt_p99_ms"], err = rtts.tail(99); err != nil {
		return fmt.Errorf("client rtt: %w", err)
	}
	r.env["rtt_samples"] = rtts.n()

	L["routing.keys_per_flush"] = ratio(sum("routing.outbox.", ".routed_keys"), sum("routing.outbox.", ".flushes"))
	L["routing.inbox_swaps_per_op"] = ratio(sum("routing.inbox.", ".swaps"), n)
	L["routing.inbox_overflows"] = sum("routing.inbox.", ".overflows")

	aeuOps := sum("aeu.", ".ops")
	L["aeu.iterations_per_op"] = ratio(sum("aeu.", ".iterations"), aeuOps)
	L["aeu.forwards_per_op"] = ratio(sum("aeu.", ".forwards"), aeuOps)
	L["aeu.deferred"] = sum("aeu.", ".deferred")
	L["aeu.expired"] = sum("aeu.", ".expired")

	scanned, pruned, full := sum("aeu.", ".colscan.blocks_scanned"), sum("aeu.", ".colscan.blocks_pruned"), sum("aeu.", ".colscan.blocks_full_hit")
	L["colstore.untouched_frac"] = ratio(pruned+full, scanned+pruned+full)
	L["colstore.blocks_scanned_per_scan"] = ratio(scanned, scans)

	L["durable.records_per_fsync"] = ratio(counter("durable.records"), counter("durable.fsyncs"))
	L["durable.bytes_per_user_byte"] = ratio(counter("durable.bytes_logged"), userBytes)

	wall := ps.wall.Seconds()
	L["mem.allocated_bytes_total"] = float64(ps.after.Gauge("mem.allocated_bytes_total"))
	hits, locked := float64(ps.after.SumCounters("mem.node.", ".cache_hits")), float64(ps.after.SumCounters("mem.node.", ".lock_allocs"))
	L["mem.cache_hit_frac"] = ratio(hits, hits+locked)

	L["numasim.link_bytes_per_op"] = ratio(counter("machine.link_bytes_total"), n)
	L["numasim.mc_bytes_per_op"] = ratio(counter("machine.mc_bytes_total"), n)
	virt := float64(ps.after.Gauge("machine.max_clock_ps")-ps.before.Gauge("machine.max_clock_ps")) / 1e12
	L["numasim.virtual_s_per_wall_s"] = virt / wall
	return nil
}

// coreReplay replays the main stream and the write probe in-process
// through the public API on a fresh engine of the same configuration, one
// closed-loop goroutine per load worker, so core.call spans carry no wire
// or server hop.
func (r *runner) coreReplay() error {
	wl := r.cfg.wl
	dataDir := filepath.Join(r.cfg.dir, "replay")
	db, err := eris.Open(engineOptions(wl, dataDir))
	if err != nil {
		return err
	}
	defer db.Close()
	if err := populate(db, wl, r.cfg.seed); err != nil {
		return err
	}
	if err := db.Start(); err != nil {
		return err
	}
	ops := append(append([]op(nil), r.mainOps...), r.probeOps...)
	samples := make([]sample, len(ops))
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.workers; w++ {
		s := r.newSession(coreBackend{db})
		rec := r.tr.recorder()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ops); i += r.cfg.workers {
				t0 := time.Now()
				err := s.exec(&ops[i])
				t1 := time.Now()
				samples[i] = sample{due: t0, sent: t0, done: t1, err: err}
				rec.add("core.call", t0, t1, -1, int64(i))
			}
		}(w)
	}
	wg.Wait()
	for _, s := range samples {
		r.tally.note(s.err)
	}
	reads, writes := splitLatencies(ops, samples)
	L := r.layers
	L["core.call_p50_ms"] = reads.pct(50)
	if L["core.call_p99_ms"], err = reads.tail(99); err != nil {
		return fmt.Errorf("core replay: %w", err)
	}
	L["core.write_p50_ms"] = writes.pct(50)
	L["server.hop_p50_ms"] = L["client.rtt_p50_ms"] - L["core.call_p50_ms"]
	return nil
}

// standaloneLayers times single modules on the run's own requests:
// the wire codec, a standalone prefix tree, standalone columns and a
// standalone write-ahead log.
func (r *runner) standaloneLayers() error {
	r.wirePass()
	if err := r.treePass(); err != nil {
		return err
	}
	if err := r.columnPass(); err != nil {
		return err
	}
	if err := r.durablePass(); err != nil {
		return err
	}
	self := selfTimes(r.tr.merged())
	for _, name := range spanNames {
		r.layers["trace.self_ms."+name] = self[name].meanMS()
	}
	return nil
}

// messages returns the wire requests of the main stream and the responses
// their answers produced.
func (r *runner) messages() (reqs, resps []wire.Msg) {
	for i, o := range r.mainOps {
		tag := uint64(i + 1)
		req := wire.Msg{Tag: tag, Object: 1, DeadlineUS: uint32(clientTO / time.Microsecond)}
		resp := wire.Msg{Tag: tag}
		switch o.kind {
		case opLookup:
			req.Type, req.Keys = wire.TLookup, o.keys
			resp.Type = wire.TResult
			for _, k := range o.keys[:o.replyKVs] {
				resp.KVs = append(resp.KVs, prefixtree.KV{Key: k, Value: k})
			}
		case opUpsert:
			req.Type, req.KVs, resp.Type = wire.TUpsert, o.kvs, wire.TAck
		case opDelete:
			req.Type, req.Keys, resp.Type = wire.TDelete, o.keys, wire.TAck
		case opScan:
			req.Type, req.Pred = wire.TColScan, scanRotation(r.aeus)[o.scan].pred
			resp.Type, resp.Matched, resp.Sum = wire.TAgg, r.want[o.scan].matched, r.want[o.scan].sum
		}
		reqs, resps = append(reqs, req), append(resps, resp)
	}
	return reqs, resps
}

// wirePass encodes and decodes the run's messages with the wire codec.
func (r *runner) wirePass() {
	reqs, resps := r.messages()
	msgs := append(reqs, resps...)
	rec := r.tr.recorder()
	var buf []byte
	frames := make([][]byte, len(msgs))
	var reqBytes, respBytes int
	for i := range msgs {
		f, err := wire.AppendFrameV(nil, &msgs[i], wire.Version)
		if err != nil {
			panic(fmt.Sprintf("wire pass: encoding a generated message: %v", err))
		}
		frames[i] = f
		if i < len(reqs) {
			reqBytes += len(f)
		} else {
			respBytes += len(f)
		}
	}
	var encNS, decNS int64
	var m wire.Msg
	for round := 0; round < wireRounds; round++ {
		t0 := time.Now()
		for i := range msgs {
			buf, _ = wire.AppendFrameV(buf[:0], &msgs[i], wire.Version)
		}
		t1 := time.Now()
		for _, f := range frames {
			if err := wire.DecodeMsgV(&m, f[4:], wire.Version); err != nil {
				panic(fmt.Sprintf("wire pass: decoding a frame it encoded: %v", err))
			}
		}
		t2 := time.Now()
		rec.add("wire.encode", t0, t1, -1, int64(round))
		rec.add("wire.decode", t1, t2, -1, int64(round))
		encNS += t1.Sub(t0).Nanoseconds()
		decNS += t2.Sub(t1).Nanoseconds()
	}
	total := float64(wireRounds * len(msgs))
	r.layers["wire.req_bytes"] = ratio(float64(reqBytes), float64(len(reqs)))
	r.layers["wire.resp_bytes"] = ratio(float64(respBytes), float64(len(resps)))
	r.layers["wire.encode_ns"] = ratio(float64(encNS), total)
	r.layers["wire.decode_ns"] = ratio(float64(decNS), total)
}

// standaloneMachine is a fresh simulated intel machine and its memory.
func standaloneMachine() (*numasim.Machine, *mem.System, error) {
	m, err := numasim.New(topology.Intel(), numasim.Config{})
	if err != nil {
		return nil, nil, err
	}
	return m, mem.NewSystem(m), nil
}

// treePass feeds the run's index requests to a standalone prefix tree
// holding the workload's dense load.
func (r *runner) treePass() error {
	machine, sys, err := standaloneMachine()
	if err != nil {
		return err
	}
	store, err := prefixtree.NewStore(machine, sys.Node(0), prefixtree.Config{PrefixBits: 8})
	if err != nil {
		return err
	}
	tree := prefixtree.NewTree(store.NewSession())
	domain := uint64(indexKeys)
	if r.cfg.wl.name == "colscan" {
		domain = probeKeys
	}
	load := make([]prefixtree.KV, 0, 4096)
	for k := uint64(0); k < domain; k++ {
		load = append(load, prefixtree.KV{Key: k, Value: k})
		if len(load) == cap(load) || k == domain-1 {
			tree.UpsertBatch(0, load)
			load = load[:0]
		}
	}
	rec := r.tr.recorder()
	var vals []uint64
	var found []bool
	var lookNS, upNS, keys, lookKeys, upKeys float64
	v0 := machine.ClockNS(0)
	for i, o := range append(append([]op(nil), r.mainOps...), r.probeOps...) {
		t0 := time.Now()
		switch o.kind {
		case opLookup:
			vals, found = make([]uint64, len(o.keys)), make([]bool, len(o.keys))
			tree.LookupBatch(0, o.keys, vals, found)
			t1 := time.Now()
			rec.add("prefixtree.lookup", t0, t1, -1, int64(i))
			lookNS += float64(t1.Sub(t0).Nanoseconds())
			lookKeys += float64(len(o.keys))
		case opUpsert:
			tree.UpsertBatch(0, o.kvs)
			t1 := time.Now()
			rec.add("prefixtree.upsert", t0, t1, -1, int64(i))
			upNS += float64(t1.Sub(t0).Nanoseconds())
			upKeys += float64(len(o.kvs))
		case opDelete:
			tree.DeleteBatch(0, o.keys)
			rec.add("prefixtree.delete", t0, time.Now(), -1, int64(i))
		default:
			continue
		}
		keys += float64(len(o.keys) + len(o.kvs))
	}
	r.layers["prefixtree.lookup_ns_per_key"] = ratio(lookNS, lookKeys)
	r.layers["prefixtree.upsert_ns_per_key"] = ratio(upNS, upKeys)
	r.layers["prefixtree.virtual_ns_per_key"] = ratio(machine.ClockNS(0)-v0, keys)
	return nil
}

// columnPass runs the run's scans over standalone columns holding the same
// values, checking each answer.
func (r *runner) columnPass() error {
	var scans []op
	for _, o := range r.mainOps {
		if o.kind == opScan && len(scans) < colPassScans {
			scans = append(scans, o)
		}
	}
	if len(scans) == 0 {
		r.layers["colstore.scan_us_clustered"], r.layers["colstore.scan_us_uniform"] = 0, 0
		return nil
	}
	machine, sys, err := standaloneMachine()
	if err != nil {
		return err
	}
	cols := map[string]*colstore.Column{}
	for _, name := range []string{objClustered, objUniform} {
		c := colstore.NewLocal(machine, colstore.Config{}, sys.Node(0))
		buf := make([]uint64, 0, 4096)
		for w := 0; w < r.aeus; w++ {
			for i := int64(0); i < colTuplesAEU; i++ {
				v := clusteredValue(w, i)
				if name == objUniform {
					v = uniformValue(r.cfg.seed, w, i)
				}
				if buf = append(buf, v); len(buf) == cap(buf) {
					c.Append(0, buf)
					buf = buf[:0]
				}
			}
		}
		c.Append(0, buf)
		cols[name] = c
	}
	rot := scanRotation(r.aeus)
	rec := r.tr.recorder()
	us := map[string]*latencies{objClustered: {}, objUniform: {}}
	for i, o := range scans {
		c := cols[o.obj]
		t0 := time.Now()
		res := c.ScanFiltered(0, c.Snapshot(), rot[o.scan].pred)
		t1 := time.Now()
		rec.add("colstore.scan", t0, t1, -1, int64(i))
		r.tally.note(checkScan(rot[o.scan].label, uint64(res.Matched), res.Sum, r.want[o.scan]))
		us[o.obj].add(t1.Sub(t0))
	}
	mean := func(l *latencies) float64 {
		var s float64
		for _, v := range l.ms {
			s += v
		}
		return ratio(s*1000, float64(l.n()))
	}
	r.layers["colstore.scan_us_clustered"] = mean(us[objClustered])
	r.layers["colstore.scan_us_uniform"] = mean(us[objUniform])
	return nil
}

// durablePass appends the run's writes to a standalone write-ahead log in
// the data directory's filesystem, flushing after each.
func (r *runner) durablePass() error {
	if !r.cfg.wl.durable {
		r.layers["durable.flush_p50_ms"] = 0
		return nil
	}
	dir := filepath.Join(r.cfg.dir, "walprobe")
	defer os.RemoveAll(dir)
	m, err := durable.Open(durable.Options{Dir: dir, SyncWrites: true})
	if err != nil {
		return err
	}
	defer m.Close()
	l := m.Log(0)
	rec := r.tr.recorder()
	var flush latencies
	done := 0
	for i, o := range r.mainOps {
		if !o.kind.isWrite() || done == durablePassOp {
			continue
		}
		done++
		t0 := time.Now()
		if o.kind == opUpsert {
			l.AppendUpsert(1, o.kvs)
		} else {
			l.AppendDelete(1, o.keys)
		}
		t1 := time.Now()
		if err := l.Flush(clientTO); err != nil {
			return err
		}
		t2 := time.Now()
		rec.add("durable.append", t0, t1, -1, int64(i))
		rec.add("durable.flush", t1, t2, -1, int64(i))
		flush.add(t2.Sub(t1))
	}
	r.layers["durable.flush_p50_ms"] = flush.pct(50)
	return nil
}
