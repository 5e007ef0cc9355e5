package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// batchRun is one `synts all` child as measured from outside.
type batchRun struct {
	stdout  []byte
	wall    time.Duration
	cpu     time.Duration // user+sys of the child
	maxRSS  int64         // bytes
	results []float64     // per experiment: ms from exec until its artefact was out
	err     error
}

// runSynts runs the synts binary to completion in dir. With -v among
// args, each "[name done in ...]" stderr line, which synts prints right
// after flushing that experiment's artefact to stdout, is timestamped as
// the experiment's time-to-result.
func runSynts(bin, dir string, args ...string) batchRun {
	cmd := command(bin, dir, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return batchRun{err: err}
	}
	var run batchRun
	var tail []string
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return batchRun{err: err}
	}
	track(cmd)
	defer untrack(cmd)
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "[") && strings.Contains(line, " done in ") {
			run.results = append(run.results, ms(time.Since(t0)))
			continue
		}
		tail = append(tail, line)
	}
	err = cmd.Wait()
	run.wall = time.Since(t0)
	run.stdout = stdout.Bytes()
	if err != nil {
		run.err = fmt.Errorf("synts %s: %v: %s", strings.Join(args, " "), err, strings.Join(tail, " | "))
		return run
	}
	ps := cmd.ProcessState
	run.cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		run.maxRSS = ru.Maxrss << 10 // Linux reports KiB
	}
	return run
}

// batchArgs are the flags every batch-all invocation shares. The batch
// runs at the program's default data seed, where the paper's figures
// are reproduced: the kernels' data seed changes how much work the batch
// does (4.5 s vs 5.4 s of wall time between two seeds), so varying it
// would measure the seed, not the program.
func (c *config) batchArgs(extra ...string) []string {
	return append([]string{"-size", strconv.Itoa(c.size)}, extra...)
}

// setupWarmups is how many untimed `synts table5.1` runs precede each
// round of timed ones: the first execs after other work run slower (cold
// page cache and CPU caches) and would bias a median of a few
// milliseconds upward.
const setupWarmups = 3

// batchSetup collects the set-up samples of a batch-all run: the wall
// time of `synts table5.1` (process start plus the platform tables every
// invocation builds), whose output must be identical every time.
type batchSetup struct {
	samples []float64 // seconds
	table   []byte
}

// round runs setupWarmups untimed and c.setups timed set-ups. runBatch
// calls it before every measured run, so the samples are spread over the
// whole measuring time, as the serve workloads' per-window set-ups are,
// and their median follows the host's speed over the run, not over its
// first second.
func (s *batchSetup) round(c *config, r *Result) {
	for i := -setupWarmups; i < c.setups; i++ {
		run := runSynts(c.synts, c.workDir, c.batchArgs("table5.1")...)
		if run.err != nil {
			r.Fail("setup: %v", run.err)
			return
		}
		if s.table == nil {
			s.table = run.stdout
			if len(s.table) == 0 {
				r.Fail("setup: table5.1 printed nothing")
				return
			}
		} else if !bytes.Equal(run.stdout, s.table) {
			r.Fail("setup: table5.1 output differs between invocations")
		}
		if i >= 0 {
			s.samples = append(s.samples, run.wall.Seconds())
		}
	}
}

// reference is the untimed serial run every measured run must match byte
// for byte; it must also begin with table5.1, its first experiment. Its
// output depends only on the binary and the size, so with reuse set it is
// kept in the work directory under the binary's digest and later runs of
// the same binary compare against it instead of recomputing it.
func reference(c *config, r *Result, table []byte, reuse bool) batchRun {
	var path string
	if reuse {
		bin, err := os.ReadFile(c.synts)
		if err != nil {
			r.Fail("reference: %v", err)
			return batchRun{err: err}
		}
		path = filepath.Join(c.workDir, fmt.Sprintf("ref-%x-size%d.out", sha256.Sum256(bin), c.size))
	}
	ref := batchRun{}
	if b, err := os.ReadFile(path); reuse && err == nil {
		ref.stdout = b
	} else {
		ref = runSynts(c.synts, c.workDir, c.batchArgs("-j", "1", "all")...)
		if ref.err != nil {
			r.Fail("reference -j 1 run: %v", ref.err)
			return ref
		}
		if reuse {
			// Written whole then renamed, so a reader never sees a
			// partial reference; a failed write only costs the next run
			// a recomputation.
			if err := os.WriteFile(path+".tmp", ref.stdout, 0o644); err == nil {
				os.Rename(path+".tmp", path)
			}
		}
	}
	if table != nil && !bytes.HasPrefix(ref.stdout, table) {
		r.Fail("reference output does not start with the table5.1 output")
	}
	return ref
}

// runBatch is the batch-all workload: `synts all` at -j 1, repeated
// until the measuring time is spent, each run checked against the -j 1
// reference. Operations are the experiments of each run. The runs are
// serial because on a machine of few shared cores a run at -j nproc
// (plus the Go runtime's GC workers) wants more CPU than there is, and
// its wall and CPU time then follow whether the host gives it a second
// core: on 2 vCPUs seven -j 2 runs ranged 4.5-8.5 s wall (23% sd) and
// 8.0-11.7 s CPU, seven -j 1 runs 7.6-9.2 s wall (6% sd).
func runBatch(c *config) *Result {
	r := newResult()
	var setup batchSetup
	setup.round(c, r)
	if !r.Correct {
		return r
	}
	// The traced run times its own reference: its wall time is the
	// denominator of batch.unattributed_frac.
	ref := reference(c, r, setup.table, !c.trace)
	if !r.Correct {
		return r
	}
	if c.trace {
		batchLayers(c, r, ref)
		return r
	}
	var walls, cpus, rss, p50s, p90s []float64
	var tally Tally
	perRun := 0
	deadline := time.Now().Add(c.seconds)
	for len(walls) == 0 || time.Now().Before(deadline) {
		if len(walls) > 0 {
			if setup.round(c, r); !r.Correct {
				return r
			}
		}
		run := runSynts(c.synts, c.workDir, c.batchArgs("-j", "1", "-v", "all")...)
		if run.err != nil {
			r.Fail("%v", run.err)
			return r
		}
		ok := bytes.Equal(run.stdout, ref.stdout)
		if !ok {
			r.Fail("run %d: stdout differs from the -j 1 reference", len(walls)+1)
		}
		if perRun == 0 {
			perRun = len(run.results)
		}
		if len(run.results) != perRun || perRun == 0 {
			r.Fail("run %d: %d experiments reported, want %d", len(walls)+1, len(run.results), perRun)
			return r
		}
		var run1 Tally
		for _, t := range run.results {
			d := time.Duration(t * float64(time.Millisecond))
			tally.Add(ok, d)
			run1.Add(ok, d)
		}
		p50, _ := Percentile(run1.Latencies(), 0.50)
		p90, _ := Percentile(run1.Latencies(), 0.90)
		p50s = append(p50s, p50)
		p90s = append(p90s, p90)
		walls = append(walls, run.wall.Seconds())
		cpus = append(cpus, run.cpu.Seconds())
		rss = append(rss, float64(run.maxRSS)/(1<<20))
	}
	r.Attempted, r.Failed = tally.Attempted(), tally.Failed
	r.Set("setup_s", "s", Median(setup.samples), len(setup.samples))
	r.Set("wall_s", "s", Median(walls), len(walls))
	r.Set("cpu_s", "s", Median(cpus), len(cpus))
	// The mean, as on the serve workloads: a run's high-water mark moves
	// with where the GC cycles fell (240-263 MB over six serial runs), and
	// the median of a few such values jumps between them.
	r.Set("peak_rss_mb", "MB", mean(rss), len(rss))
	// Time-to-result of a run's experiments: its p50 and p90, each taken
	// per run and summarised by the median over the runs. A run has too
	// few experiments for ten samples beyond its p90; the batch is the
	// one exception to the percentile rule.
	r.Set("p50_ms", "ms", Median(p50s), len(walls))
	r.Set("p90_ms", "ms", Median(p90s), len(walls))
	if perRun > 0 {
		r.Set("cpu_ms_per_req", "ms", Median(cpus)*1000/float64(perRun), len(cpus))
	}
	r.Note("batch-all p90_ms rests on %d experiments a run, fewer than ten beyond it", perRun)
	r.Note("batch-all: %d runs of `synts -j 1 all`, %d experiments each; wall %.3f s, cpu %.3f s",
		len(walls), perRun, walls, cpus)
	return r
}
