// Command perfbench is the repository benchmark: it serves an ERIS engine
// from its own server process over loopback eriswire and drives one of
// three workloads against it from this process, checking every answer.
// See README.md for the workloads, the metrics and how they relate.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload point-read --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result: a JSON object with the
// keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
// Exit codes: 0 success, 1 error (no result), 2 a wrong answer (result
// printed with correct=false), 3 an invalid run (no result).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	workloadName := flag.String("workload", "", "workload: point-read, skewed-mixed-durable or colscan")
	seed := flag.Int64("seed", 1, "workload seed: every input is derived from it")
	seconds := flag.Float64("seconds", 20, "measuring time of the run in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	serveMode := flag.Bool("serve", false, "internal: run as the server process")
	dataDir := flag.String("datadir", "", "internal: the server's data directory")
	flag.Parse()

	wl, err := workloadByName(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *serveMode {
		if err := serve(wl, *seed, *dataDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench server:", err)
			return 1
		}
		return 0
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := filepath.Join(root, ".bench_build")
	cfg := runConfig{
		wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		dir:     filepath.Join(out, "run", fmt.Sprintf("%s-%d", wl.name, os.Getpid())),
		workers: runtime.NumCPU(),
	}
	r := newRunner(cfg)
	runErr := r.run()
	r.close()
	var invalid *errInvalid
	switch {
	case errors.As(runErr, &invalid):
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		return 3
	case runErr != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		return 1
	}
	res, err := r.result(spec, root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := r.save(filepath.Join(out, "results"), res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.print(spec, res)
	if !res.Correct {
		return 2
	}
	return 0
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the output for the run's mode. Every metric the mode
// lists in BENCHMARK.json must have been measured, and nothing else.
func (r *runner) result(spec *benchSpec, root string) (*result, error) {
	snap := r.reg.Snapshot()
	r.layers["client.retries"] = float64(snap.Counter("client.retries"))
	r.layers["client.timeouts"] = float64(snap.Counter("client.timeouts"))
	r.env["git_sha"] = gitSHA(root)
	r.env["go_version"] = runtime.Version()
	r.env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.env["nproc"] = runtime.NumCPU()
	r.env["datadir_fs"] = fsType(filepath.Dir(r.cfg.dir))
	r.env["seed"] = r.cfg.seed
	r.env["seconds"] = r.cfg.seconds
	r.env["offered_rate"] = r.cfg.wl.readRate
	r.env["probe_rate"] = r.cfg.wl.writeRate
	r.env["balancer_interval_virtual_s"] = r.cfg.wl.balancerInterval
	r.env["load_workers"] = r.cfg.workers
	if r.cfg.wl.durable {
		r.env["flush_policy"] = "SyncWrites (ack after group-commit fsync), checkpoint at Start only"
	} else {
		r.env["flush_policy"] = "in-memory, no data dir"
	}

	want, got := spec.EndToEnd, r.e2e
	if r.cfg.trace {
		want, got = spec.PerLayer, r.layers
	}
	res := &result{
		Correct:   r.tally.wrong.Load() == 0,
		Attempted: r.tally.attempted.Load(),
		Failed:    r.tally.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s listed in BENCHMARK.json was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(res.Metrics) != len(got) {
		var extra []string
		for name := range got {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		return nil, fmt.Errorf("measured metrics missing from BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return res, nil
}

// save writes the full record of the run (environment, both metric sets,
// notes) and, for a traced run, its spans.
func (r *runner) save(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v", r.cfg.wl.name, r.cfg.seed, r.cfg.trace))
	rec := map[string]any{"workload": r.cfg.wl.name, "env": r.env, "end_to_end": r.e2e,
		"per_layer": r.layers, "notes": r.notes, "result": res}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if r.tr != nil {
		return writeSpans(base+"-spans.json", r.tr.merged())
	}
	return nil
}

// print writes the human-readable report, then the result line.
func (r *runner) print(spec *benchSpec, res *result) {
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", r.cfg.wl.name, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	env, _ := json.Marshal(r.env)
	fmt.Printf("env: %s\n", env)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	failedFrac := ratio(float64(res.Failed), float64(res.Attempted))
	fmt.Printf("requests: %d attempted, %d failed (failed_frac %.6f), %d wrong answers\n",
		res.Attempted, res.Failed, failedFrac, r.tally.wrong.Load())
	if p := r.tally.firstWrong.Load(); p != nil {
		fmt.Printf("first wrong answer: %s\n", *p)
	}
	for _, m := range spec.EndToEnd {
		if v, ok := r.e2e[m.Name]; ok {
			fmt.Printf("end-to-end %-22s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	if r.cfg.trace {
		for _, m := range spec.PerLayer {
			fmt.Printf("layer %-36s %16.6g %s\n", m.Name, r.layers[m.Name], m.Unit)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// gitSHA reads the checkout's commit from .git without running git; a
// checkout without .git reports "unknown".
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
