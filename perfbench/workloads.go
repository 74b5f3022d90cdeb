package main

import (
	"fmt"
	"math/rand"
	"sort"

	"eris"
	"eris/internal/colstore"
	"eris/internal/prefixtree"
	"eris/internal/workload"
)

// Data sizes shared by the server (which loads them) and the load process
// (which derives expected answers from the same generators).
const (
	indexKeys     = 1 << 20 // dense keys of "kv" on point-read and skewed-mixed-durable
	probeKeys     = 1 << 16 // dense keys of the colscan workload's write-probe index
	batchKeys     = 64      // keys per lookup / upsert request
	deleteKeys    = 8       // keys per delete request
	colTuplesAEU  = 64 << 10
	hotFrac       = 10 // the hot range is 1/hotFrac of the domain
	killAfterAcks = 48 // acknowledged writes in the kill phase before kill -9
)

// workloadSpec is one traffic mix. Rates are the fixed open-loop offered
// rates, chosen so the seed sustains them without a growing backlog.
type workloadSpec struct {
	name string
	// readRate is the open-loop offered rate of the main request stream
	// (req/s); writeRate that of the separate write probe (0 = the main
	// stream already carries writes).
	readRate, writeRate float64
	// readShare and writeShare are the shares of the run's measuring time
	// the open-loop main stream and the write probe get at their rates.
	readShare, writeShare float64
	// balancerInterval is the oneshot balancer's sampling window in virtual
	// seconds (0 = no balancer).
	balancerInterval float64
	durable          bool
}

var workloads = []workloadSpec{
	{name: "point-read", readRate: 100, writeRate: 100, readShare: 0.5, writeShare: 0.35},
	{name: "skewed-mixed-durable", readRate: 110, readShare: 0.8, balancerInterval: 0.004, durable: true},
	{name: "colscan", readRate: 100, writeRate: 100, readShare: 0.5, writeShare: 0.35},
}

func workloadByName(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Object names served per workload.
const (
	objKV        = "kv"
	objClustered = "clustered"
	objUniform   = "uniform"
)

// populate creates and bulk-loads the workload's objects before Start.
func populate(db *eris.DB, wl *workloadSpec, seed int64) error {
	switch wl.name {
	case "point-read", "skewed-mixed-durable":
		ix, err := db.CreateIndex(objKV, indexKeys)
		if err != nil {
			return err
		}
		return ix.LoadDense(indexKeys, nil)
	case "colscan":
		ix, err := db.CreateIndex(objKV, probeKeys)
		if err != nil {
			return err
		}
		if err := ix.LoadDense(probeKeys, nil); err != nil {
			return err
		}
		cl, err := db.CreateColumn(objClustered)
		if err != nil {
			return err
		}
		if err := cl.LoadUniform(colTuplesAEU, func(w int, i int64) uint64 { return clusteredValue(w, i) }); err != nil {
			return err
		}
		un, err := db.CreateColumn(objUniform)
		if err != nil {
			return err
		}
		return un.LoadUniform(colTuplesAEU, func(w int, i int64) uint64 { return uniformValue(seed, w, i) })
	}
	return fmt.Errorf("populate: unknown workload %q", wl.name)
}

// clusteredValue is the global position of tuple i of AEU w, so a
// PredLess(x) scan matches exactly x tuples.
func clusteredValue(w int, i int64) uint64 { return uint64(w)*colTuplesAEU + uint64(i) }

// uniformValue hashes the global position with the workload seed.
func uniformValue(seed int64, w int, i int64) uint64 {
	return mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ clusteredValue(w, i))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// scanSpec is one entry of the colscan rotation.
type scanSpec struct {
	column string
	pred   colstore.Predicate
	label  string
}

// colTuples is the total tuple count of each column for aeus AEUs.
func colTuples(aeus int) uint64 { return uint64(aeus) * colTuplesAEU }

// scanRotation is the fixed colscan rotation: clustered scans that zone
// maps prune or accept whole, and uniform scans every block must evaluate.
func scanRotation(aeus int) []scanSpec {
	n := colTuples(aeus)
	return []scanSpec{
		{objClustered, eris.PredLess(n / 1000), "clustered<0.1%"},
		{objUniform, eris.PredLess(1 << 63 / 50), "uniform<1%"},
		{objClustered, eris.PredLess(n / 10), "clustered<10%"},
		{objUniform, eris.PredLess(1 << 63), "uniform<50%"},
		{objClustered, eris.PredAll(), "clustered-all"},
	}
}

// scanAnswer is an expected scan aggregate.
type scanAnswer struct{ matched, sum uint64 }

// expectedScans computes every rotation entry's answer from the column
// generators, independently of the engine.
func expectedScans(seed int64, aeus int) []scanAnswer {
	rot := scanRotation(aeus)
	out := make([]scanAnswer, len(rot))
	for w := 0; w < aeus; w++ {
		for i := int64(0); i < colTuplesAEU; i++ {
			cv, uv := clusteredValue(w, i), uniformValue(seed, w, i)
			for j, s := range rot {
				v := cv
				if s.column == objUniform {
					v = uv
				}
				if s.pred.Matches(v) {
					out[j].matched++
					out[j].sum += v
				}
			}
		}
	}
	return out
}

type opKind uint8

const (
	opLookup opKind = iota
	opUpsert
	opDelete
	opScan
)

func (k opKind) isWrite() bool { return k == opUpsert || k == opDelete }

// op is one request of a workload's stream.
type op struct {
	kind opKind
	obj  string
	keys []uint64
	kvs  []prefixtree.KV
	scan int // rotation index for opScan
	// replyKVs is how many pairs the lookup's reply held.
	replyKVs int
}

// keyState is a key's content in a client's model of its stripe.
type keyState struct {
	val     uint64
	deleted bool
}

// generator produces one client's requests. Inputs depend only on the
// seed, the client index and the phase, never on the engine's answers.
type generator struct {
	wl      *workloadSpec
	rng     *rand.Rand
	client  int
	clients int
	aeus    int
	// mixed-workload state: a per-8 shuffled request pattern, the upsert
	// value counter and the client's stripe of the hot range.
	pattern []opKind
	pos     int
	nextVal uint64
	hot     workload.HotRange
	scanPos int
	seen    map[uint64]struct{}
}

// Phases of a run; each draws its requests from its own seeded streams.
const (
	phaseWarmup = iota + 1
	phaseClosed
	phaseOpen
	phaseOpenTraced
	phaseProbe
	phaseKill
)

// phaseSeed derives the random stream of one client (or of the schedule,
// client -1) in one phase from the workload seed.
func phaseSeed(seed int64, phase, client int) int64 {
	return int64(mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(phase)<<40 ^ uint64(client+1)))
}

func newGenerator(wl *workloadSpec, seed int64, client, clients, aeus, phase int) *generator {
	g := &generator{
		wl: wl, rng: rand.New(rand.NewSource(phaseSeed(seed, phase, client))),
		client: client, clients: clients, aeus: aeus,
		hot:  workload.HotRange{Lo: 0, Hi: indexKeys / hotFrac},
		seen: make(map[uint64]struct{}, batchKeys),
		// Upsert values carry the client and the phase in their top bits,
		// so they never repeat and never collide with the dense load
		// (value = key).
		nextVal: uint64(client+1)<<56 | uint64(phase)<<48,
	}
	g.scanPos = g.rng.Intn(len(scanRotation(aeus)))
	return g
}

// distinctKeys draws n distinct keys with draw.
func (g *generator) distinctKeys(n int, draw func() uint64) []uint64 {
	clear(g.seen)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := draw()
		if _, dup := g.seen[k]; dup {
			continue
		}
		g.seen[k] = struct{}{}
		keys = append(keys, k)
	}
	return keys
}

func (g *generator) uniformKey(domain uint64) func() uint64 {
	return func() uint64 { return uint64(g.rng.Int63n(int64(domain))) }
}

// stripeKey draws a hot-range key owned by this client (key ≡ client mod
// clients), so every key has exactly one writer.
func (g *generator) stripeKey() uint64 {
	for {
		k := g.hot.Key(g.rng, 0)
		k -= k % uint64(g.clients)
		k += uint64(g.client)
		if k < g.hot.Hi {
			return k
		}
	}
}

// next returns the next request of the main stream.
func (g *generator) next() op {
	switch g.wl.name {
	case "point-read":
		return op{kind: opLookup, obj: objKV, keys: g.distinctKeys(batchKeys, g.uniformKey(indexKeys))}
	case "skewed-mixed-durable":
		if g.pos == len(g.pattern) {
			// erisload's mixed ratios, exact per block of 8: 5 lookups,
			// 2 upserts, 1 delete, in a seeded order.
			g.pattern = []opKind{opLookup, opLookup, opLookup, opLookup, opLookup, opUpsert, opUpsert, opDelete}
			g.rng.Shuffle(len(g.pattern), func(i, j int) { g.pattern[i], g.pattern[j] = g.pattern[j], g.pattern[i] })
			g.pos = 0
		}
		kind := g.pattern[g.pos]
		g.pos++
		return g.mixedOp(kind)
	case "colscan":
		i := g.scanPos
		g.scanPos = (g.scanPos + 1) % len(scanRotation(g.aeus))
		return op{kind: opScan, obj: scanRotation(g.aeus)[i].column, scan: i}
	}
	panic("generator: unknown workload " + g.wl.name)
}

func (g *generator) mixedOp(kind opKind) op {
	switch kind {
	case opUpsert:
		keys := g.distinctKeys(batchKeys, g.stripeKey)
		kvs := make([]prefixtree.KV, len(keys))
		for i, k := range keys {
			g.nextVal++
			kvs[i] = prefixtree.KV{Key: k, Value: g.nextVal}
		}
		return op{kind: opUpsert, obj: objKV, kvs: kvs}
	case opDelete:
		return op{kind: opDelete, obj: objKV, keys: g.distinctKeys(deleteKeys, g.stripeKey)}
	}
	return op{kind: opLookup, obj: objKV, keys: g.distinctKeys(batchKeys, g.stripeKey)}
}

// probe returns the next write-probe request: upserts that rewrite the
// dense load's own values (value = key), so the reads' expected answers
// never change.
func (g *generator) probe() op {
	domain := uint64(indexKeys)
	if g.wl.name == "colscan" {
		domain = probeKeys
	}
	keys := g.distinctKeys(batchKeys, g.uniformKey(domain))
	kvs := make([]prefixtree.KV, len(keys))
	for i, k := range keys {
		kvs[i] = prefixtree.KV{Key: k, Value: k}
	}
	return op{kind: opUpsert, obj: objKV, kvs: kvs}
}

// model is one client's view of the keys it owns. Keys absent from the
// map hold their dense-load value (value = key).
type model struct {
	state map[uint64]keyState
	// pending is the client's one write in flight, if any; unresolved
	// are writes that failed without an answer. Either may or may not
	// have taken effect.
	pending    *op
	unresolved []*op
}

func newModel() *model { return &model{state: make(map[uint64]keyState)} }

func (m *model) get(k uint64) keyState {
	if s, ok := m.state[k]; ok {
		return s
	}
	return keyState{val: k}
}

// apply records an acknowledged write.
func (m *model) apply(o *op) {
	switch o.kind {
	case opUpsert:
		for _, kv := range o.kvs {
			m.state[kv.Key] = keyState{val: kv.Value}
		}
	case opDelete:
		for _, k := range o.keys {
			m.state[k] = keyState{deleted: true}
		}
	}
}

// effect returns the state write o leaves key k in, if o touches k.
func effect(o *op, k uint64) (keyState, bool) {
	switch o.kind {
	case opUpsert:
		for _, kv := range o.kvs {
			if kv.Key == k {
				return keyState{val: kv.Value}, true
			}
		}
	case opDelete:
		for _, dk := range o.keys {
			if dk == k {
				return keyState{deleted: true}, true
			}
		}
	}
	return keyState{}, false
}

// errWrong marks a reply that disagrees with the expected answer.
type errWrong struct{ msg string }

func (e *errWrong) Error() string { return "wrong answer: " + e.msg }

func wrongf(format string, args ...any) error { return &errWrong{msg: fmt.Sprintf(format, args...)} }

// checkLookup compares a lookup reply (found pairs sorted by key) with the
// states accept allows for each requested key. accept returns every
// acceptable state; a key may be absent only if a deleted state is among
// them.
func checkLookup(keys []uint64, got []prefixtree.KV, accept func(k uint64) []keyState) error {
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	j := 0
	for _, k := range sorted {
		found := j < len(got) && got[j].Key == k
		ok := false
		for _, s := range accept(k) {
			if (s.deleted && !found) || (!s.deleted && found && got[j].Value == s.val) {
				ok = true
				break
			}
		}
		if !ok {
			if found {
				return wrongf("key %d read value %d, want one of %v", k, got[j].Value, accept(k))
			}
			return wrongf("key %d missing, want one of %v", k, accept(k))
		}
		if found {
			j++
		}
	}
	if j != len(got) {
		return wrongf("reply holds %d pairs, %d of them for keys not requested", len(got), len(got)-j)
	}
	return nil
}

// denseState accepts only the dense-load value.
func denseState(k uint64) []keyState { return []keyState{{val: k}} }

// checkScan compares a scan aggregate with the generator's answer.
func checkScan(label string, matched, sum uint64, want scanAnswer) error {
	if matched != want.matched || sum != want.sum {
		return wrongf("scan %s matched %d sum %d, want %d and %d", label, matched, sum, want.matched, want.sum)
	}
	return nil
}
