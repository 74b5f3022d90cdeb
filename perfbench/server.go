package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"eris"
	"eris/internal/metrics"
)

// engineOptions is the engine configuration every workload serves with:
// the default intel topology (40 AEUs), as erisserve users get it.
func engineOptions(wl *workloadSpec, dataDir string) eris.Options {
	opts := eris.Options{Machine: "intel"}
	if wl.balancerInterval > 0 {
		opts.Balancer = "oneshot"
		opts.BalancerIntervalSec = wl.balancerInterval
	}
	if wl.durable {
		// Flush policy: every acknowledged write is fsynced first (group
		// commit); checkpoints only at Start.
		opts.DataDir = dataDir
		opts.SyncWrites = true
	}
	return opts
}

// serve is the server process: it opens (or recovers) the workload's
// engine, serves it over loopback eriswire and exits when its standard
// input closes. The parent normally ends it with kill -9.
func serve(wl *workloadSpec, seed int64, dataDir string) error {
	opts := engineOptions(wl, dataDir)
	opts.ListenAddr = "127.0.0.1:0"
	opts.MetricsAddr = "127.0.0.1:0"
	db, err := eris.Open(opts)
	if err != nil {
		return err
	}
	if !db.Recovered() {
		if err := populate(db, wl, seed); err != nil {
			return err
		}
	}
	if err := db.Start(); err != nil {
		return err
	}
	fmt.Printf("ready %s %s %d %d\n", db.ServeAddr(), db.MetricsListenAddr(), runtime.GOMAXPROCS(0), db.Stats().Workers)
	_, _ = io.Copy(io.Discard, os.Stdin) // returns when the parent goes away
	return db.Close()
}

// serverProc is a running server process.
type serverProc struct {
	cmd         *exec.Cmd
	stdin       io.Closer
	addr        string
	metricsAddr string
	gomaxprocs  int
	aeus        int
	done        chan struct{}
	// peakMB is the process's peak RSS, read just before it is killed.
	peakMB float64
}

// launch starts a server process for the workload and waits for its ready
// line. The caller must kill it.
func launch(wl *workloadSpec, seed int64, dataDir string) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-serve", "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10), "-datadir", dataDir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		p.kill()
		return nil, fmt.Errorf("server for %s exited before it was ready: %v", wl.name, err)
	}
	f := strings.Fields(line)
	if len(f) != 5 || f[0] != "ready" {
		p.kill()
		return nil, fmt.Errorf("unexpected server line %q", line)
	}
	p.addr, p.metricsAddr = f[1], f[2]
	p.gomaxprocs, _ = strconv.Atoi(f[3])
	p.aeus, _ = strconv.Atoi(f[4])
	return p, nil
}

// kill records the process's peak RSS, sends SIGKILL and waits until the
// process has ended.
func (p *serverProc) kill() {
	if p == nil {
		return
	}
	if mb, err := p.peakRSSMB(); err == nil {
		p.peakMB = mb
	}
	_ = p.cmd.Process.Kill()
	<-p.done
	p.stdin.Close()
}

// cpuSeconds is the process's user+system CPU time so far, from
// /proc/<pid>/stat (USER_HZ is 100 on every Linux this runs on).
func (p *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return (ut + st) / 100, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// snapshot reads the server's metrics endpoint.
func (p *serverProc) snapshot() (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	resp, err := http.Get("http://" + p.metricsAddr + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("metrics endpoint: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}
