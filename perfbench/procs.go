package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every live child so a signal to the benchmark can stop
// them; each child also gets SIGKILL from the kernel if the benchmark dies.
var children struct {
	sync.Mutex
	set map[*exec.Cmd]bool
}

// command builds a child command that dies with the benchmark.
func command(bin, dir string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// track registers a started child; untrack forgets a reaped one.
func track(cmd *exec.Cmd) {
	children.Lock()
	defer children.Unlock()
	if children.set == nil {
		children.set = make(map[*exec.Cmd]bool)
	}
	children.set[cmd] = true
}

func untrack(cmd *exec.Cmd) {
	children.Lock()
	defer children.Unlock()
	delete(children.set, cmd)
}

// killChildren kills every live child and reaps it. The benchmark exits
// right after, so the children's own waiters never run.
func killChildren() {
	children.Lock()
	defer children.Unlock()
	for cmd := range children.set {
		cmd.Process.Kill()
		syscall.Wait4(cmd.Process.Pid, nil, 0, nil)
	}
}

// proc is one running synts child (a daemon or the router).
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string // base URL (http://ADDR) once listening

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
	done chan struct{}
}

// startProc execs the synts binary with args in dir and waits until it
// announces its listen address on stderr ("listening on http://ADDR").
func startProc(name, bin, dir string, args ...string) (*proc, error) {
	cmd := command(bin, dir, args...)
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	track(cmd)
	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				a := line[i+len("listening on "):]
				if j := strings.IndexByte(a, ' '); j >= 0 {
					a = a[:j]
				}
				a = strings.TrimRight(a, ",")
				select {
				case addr <- a:
				default:
				}
			}
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
		}
	}()
	select {
	case a := <-addr:
		p.url = a
		return p, nil
	case <-p.done:
		p.stop()
		return nil, fmt.Errorf("%s exited before listening: %s", name, p.stderrTail())
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within 60s", name)
	}
}

func (p *proc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// stop sends SIGTERM (serve drains, route shuts down), waits, and kills
// the process if it has not exited within 10s. It always reaps it.
func (p *proc) stop() {
	if p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() { p.cmd.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-exited
	}
	untrack(p.cmd)
}

// cpuTime is the process's CPU time so far: the nanosecond run time of
// each of its threads from /proc/PID/task/TID/schedstat, summed. (The
// utime/stime of /proc/PID/stat count 10ms ticks, too coarse for a
// window of a few seconds.)
func (p *proc) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, errors.New("empty schedstat")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// peakRSS is the process's resident-set high-water mark (VmHWM) in bytes.
func (p *proc) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// probeClient serves readiness polls and counter scrapes; it never shares
// connections with the load generator's transport.
var probeClient = &http.Client{Timeout: 2 * time.Second}

// get fetches url and returns status and body.
func get(url string) (int, string, error) {
	resp, err := probeClient.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

// waitReady polls the process's /readyz until it answers 200 with a body
// that satisfies want, or the deadline passes.
func waitReady(p *proc, deadline time.Time, want func(string) bool) error {
	for {
		code, body, err := get(p.url + "/readyz")
		if err == nil && code == http.StatusOK && want(body) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: last status %d %q err %v", p.name, code, strings.TrimSpace(body), err)
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited while starting: %s", p.name, p.stderrTail())
		case <-time.After(time.Millisecond):
		}
	}
}

// debugVars is the part of a daemon's /debug/vars the traced run reads.
type debugVars struct {
	Events   float64 `json:"synts_telemetry_events"`
	MemStats struct {
		NumGC        float64 `json:"NumGC"`
		PauseTotalNs float64 `json:"PauseTotalNs"`
		HeapAlloc    float64 `json:"HeapAlloc"`
	} `json:"memstats"`
}

func scrapeVars(p *proc) (debugVars, error) {
	var v debugVars
	code, body, err := get(p.url + "/debug/vars")
	if err != nil {
		return v, err
	}
	if code != http.StatusOK {
		return v, fmt.Errorf("%s /debug/vars: status %d", p.name, code)
	}
	err = json.Unmarshal([]byte(body), &v)
	return v, err
}

// fleetKind selects the process topology of a serve workload.
type fleetKind int

const (
	oneDaemon  fleetKind = iota // synts serve -shards nproc
	routedPair                  // synts route over two synts serve -shards 1
)

// fleetProcs is one fresh set of serving processes.
type fleetProcs struct {
	daemons []*proc
	router  *proc
	entry   string  // URL the load generator targets
	setup   float64 // seconds from first exec until every process is ready
}

func (f *fleetProcs) all() []*proc {
	ps := append([]*proc(nil), f.daemons...)
	if f.router != nil {
		ps = append(ps, f.router)
	}
	return ps
}

func (f *fleetProcs) stop() {
	// The router goes first so it never probes a draining daemon.
	if f.router != nil {
		f.router.stop()
	}
	for _, d := range f.daemons {
		d.stop()
	}
}

// startFleet starts a fresh topology and times it until ready: every
// daemon answers /readyz, and the router reports all backends ready.
func startFleet(kind fleetKind, bin, dir string, nproc int) (*fleetProcs, error) {
	deadline := time.Now().Add(60 * time.Second)
	f := &fleetProcs{}
	t0 := time.Now()
	shards, n := nproc, 1
	if kind == routedPair {
		shards, n = 1, 2
	}
	for i := 0; i < n; i++ {
		d, err := startProc(fmt.Sprintf("serve%d", i), bin, dir,
			"serve", "-addr", "127.0.0.1:0", "-shards", strconv.Itoa(shards))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.daemons = append(f.daemons, d)
	}
	for _, d := range f.daemons {
		if err := waitReady(d, deadline, func(string) bool { return true }); err != nil {
			f.stop()
			return nil, err
		}
	}
	f.entry = f.daemons[0].url
	if kind == routedPair {
		urls := make([]string, len(f.daemons))
		for i, d := range f.daemons {
			urls[i] = d.url
		}
		r, err := startProc("route", bin, dir, "route", "-addr", "127.0.0.1:0", "-backends", strings.Join(urls, ","))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.router = r
		want := fmt.Sprintf("(%d/%d backends)", n, n)
		if err := waitReady(r, deadline, func(body string) bool { return strings.Contains(body, want) }); err != nil {
			f.stop()
			return nil, err
		}
		f.entry = r.url
	}
	f.setup = time.Since(t0).Seconds()
	return f, nil
}

// cpuTotal sums user+sys CPU over the fleet's processes.
func (f *fleetProcs) cpuTotal() (time.Duration, error) {
	var sum time.Duration
	for _, p := range f.all() {
		c, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// peakRSS sums the processes' resident-set high-water marks, in bytes.
func (f *fleetProcs) peakRSS() (int64, error) {
	var sum int64
	for _, p := range f.all() {
		b, err := p.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return sum, nil
}
