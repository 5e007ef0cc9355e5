// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the real synts binary as child processes, checks the
// program's outputs, and prints every metric with its unit and sample
// count; the last line of stdout is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (run.sh builds both binaries from the checkout first):
//
//	bash perfbench/run.sh --workload batch-all --seed 1 --seconds 30 --trace 0
//
// Workloads: batch-all (`synts all`), serve-unique (one `synts serve`,
// distinct payloads) and route-repeat (`synts route` over two daemons,
// nine in ten payloads repeated). --trace 0 reports the end-to-end
// metrics; --trace 1 runs the traced pass and reports per-layer metrics.
// README.md in this directory explains each workload and metric.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// config is one run's settings. The flags choose the workload, seed,
// measuring time and tracing; main fixes the rest for a measured run, and
// the smoke test shrinks size, rate, set-ups and window length.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	synts    string // path to the synts binary
	workDir  string // children's working directory; span files go here
	nproc    int
	size     int           // batch-all: synts -size
	rps      float64       // serve workloads: open-loop arrival rate
	setups   int           // batch-all: set-ups timed before each measured run; their median is setup_s
	window   time.Duration // serve workloads: length of each fresh-fleet window
}

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) *Result{
	"batch-all": runBatch,
	"serve-unique": func(c *config) *Result {
		return runServe(c, serveSpec{kind: oneDaemon, repeat: -1})
	},
	"route-repeat": func(c *config) *Result {
		return runServe(c, serveSpec{kind: routedPair, repeat: 0.9})
	},
}

func main() {
	c := &config{nproc: runtime.NumCPU(), size: 2, rps: 500, setups: 8, window: 2500 * time.Millisecond}
	flag.StringVar(&c.workload, "workload", "", "batch-all, serve-unique or route-repeat")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed")
	secs := flag.Int("seconds", 30, "measuring time per run")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.synts, "synts", "", "path to the synts binary")
	flag.StringVar(&c.workDir, "work-dir", "", "working directory for the synts children")
	flag.Parse()
	run, ok := workloads[c.workload]
	if !ok || c.synts == "" || c.workDir == "" || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -synts BIN -work-dir DIR --workload batch-all|serve-unique|route-repeat --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	c.seconds = time.Duration(*secs) * time.Second
	c.trace = *traced == 1
	var err error
	if c.synts, err = filepath.Abs(c.synts); err == nil {
		c.workDir, err = filepath.Abs(c.workDir)
	}
	if err == nil {
		err = os.MkdirAll(c.workDir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	// A signal stops every child before the benchmark exits, and no
	// result is printed.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "perfbench: %v, stopping children\n", s)
		killChildren()
		os.Exit(1)
	}()
	r := run(c)
	if !c.trace && r.Correct {
		for _, m := range endToEnd {
			if _, ok := r.Get(m.name); !ok {
				r.Fail("end-to-end metric %s missing", m.name)
			}
		}
	}
	if err := r.Write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !r.Correct {
		os.Exit(1)
	}
}
