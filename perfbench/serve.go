package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"synts/internal/service"
)

// serveSpec is one serve workload: a process topology and a request mix.
type serveSpec struct {
	kind fleetKind
	// repeat is service.GenOptions.RepeatFrac: < 0 disables payload
	// repeats, 0.9 makes nine in ten requests reuse an earlier payload.
	repeat float64
}

// genBodies renders the workload's seeded request stream exactly as the
// stock load generator renders it (json.Marshal of each SolveRequest).
func genBodies(seed int64, n int, repeat float64) ([][]byte, error) {
	reqs := service.GenStream(service.GenOptions{Seed: seed, Cores: 4, RepeatFrac: repeat}, n)
	bodies := make([][]byte, n)
	for i := range reqs {
		b, err := json.Marshal(&reqs[i])
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// servePass is the measured traffic of one run: its open-loop windows,
// each over a fresh fleet, pooled.
type servePass struct {
	bodies    [][]byte
	outs      []reqOutcome
	ok        []bool // per request: 200, not shed, answer verified
	tally     Tally
	setups    []float64     // per window: exec until ready, seconds
	cpu       time.Duration // serving processes, summed over the windows
	wall      time.Duration // first due time until the last response, summed
	rss       []float64     // per window: summed high-water RSS, MB
	late      []float64     // ms each send lagged its due time
	failovers int
	before    []debugVars // per daemon and window, traced passes only
	after     []debugVars
}

// windowBodies splits the measuring time into windows of c.window and
// renders each window's request stream; window k of a run with seed s
// uses generator seed 100*s + k.
func windowBodies(c *config, repeat float64) ([][][]byte, error) {
	k := int(c.seconds / c.window)
	if k < 1 {
		k = 1
	}
	n := int(c.rps * c.window.Seconds())
	out := make([][][]byte, k)
	for k := range out {
		b, err := genBodies(100*c.seed+int64(k), n, repeat)
		if err != nil {
			return nil, err
		}
		out[k] = b
	}
	return out, nil
}

// measure runs one window per body slice, each against a fresh fleet
// that is set up (and timed), driven open-loop, and stopped. With scrape
// set it also reads each daemon's /debug/vars around every window.
func measure(c *config, spec serveSpec, windows [][][]byte, scrape bool) (*servePass, error) {
	p := &servePass{}
	for _, bodies := range windows {
		f, err := startFleet(spec.kind, c.synts, c.workDir, c.nproc)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setups = append(p.setups, f.setup)
		err = p.window(f, c, bodies, scrape)
		f.stop()
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *servePass) window(f *fleetProcs, c *config, bodies [][]byte, scrape bool) error {
	client, tr, err := newClient(f.entry, c.nproc)
	if err != nil {
		return err
	}
	defer tr.CloseIdleConnections()
	scrapeAll := func(into *[]debugVars) error {
		for _, d := range f.daemons {
			v, err := scrapeVars(d)
			if err != nil {
				return err
			}
			*into = append(*into, v)
		}
		return nil
	}
	if scrape {
		if err := scrapeAll(&p.before); err != nil {
			return err
		}
	}
	cpu0, err := f.cpuTotal()
	if err != nil {
		return err
	}
	outs := runOpenLoop(client, bodies, c.rps)
	cpu1, err := f.cpuTotal()
	if err != nil {
		return err
	}
	rss, err := f.peakRSS()
	if err != nil {
		return err
	}
	if scrape {
		if err := scrapeAll(&p.after); err != nil {
			return err
		}
	}
	p.cpu += cpu1 - cpu0
	p.rss = append(p.rss, float64(rss)/(1<<20))
	last := outs[0].done
	for _, o := range outs {
		if o.done.After(last) {
			last = o.done
		}
		p.late = append(p.late, ms(o.sent.Sub(o.due)))
		p.failovers += o.failovers
	}
	p.wall += last.Sub(outs[0].due)
	p.bodies = append(p.bodies, bodies...)
	p.outs = append(p.outs, outs...)
	return nil
}

// settle checks every response and fills the pass's tally: a request is
// OK only if it answered 200 unshed with an answer that matches the
// in-process recomputation; anything else is a failed operation with
// +Inf latency.
func (p *servePass) settle(v *verifier, r *Result) {
	p.ok = make([]bool, len(p.outs))
	mismatches := 0
	for i, o := range p.outs {
		ok := o.err == nil && o.status == http.StatusOK && o.shed == ""
		if ok {
			if err := v.check(p.bodies[i], o.body); err != nil {
				if mismatches == 0 {
					r.Note("request %d: %v", i, err)
				}
				mismatches++
				ok = false
			}
		}
		p.ok[i] = ok
		p.tally.Add(ok, o.done.Sub(o.due))
	}
	if mismatches > 0 {
		r.Fail("%d responses did not match the recomputed solve", mismatches)
	}
	r.Attempted += p.tally.Attempted()
	r.Failed += p.tally.Failed
	if p.failovers != 0 {
		r.Fail("%d failovers on a healthy fleet", p.failovers)
	}
}

// lateP99 is the generator's own lag. A run whose generator fell behind
// its schedule measured the generator (or a stalled host), not the
// program: it is flagged invalid on stdout and stderr. Its outputs may
// still be correct, so the flag does not touch Correct.
func (p *servePass) lateP99(r *Result) float64 {
	v, _ := Percentile(p.late, 0.99)
	if v > maxLateMs {
		msg := fmt.Sprintf("INVALID RUN: load generator fell behind: send lag p99 %.2fms exceeds %.0fms", v, maxLateMs)
		r.Note("%s", msg)
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
	return v
}

// maxLateMs bounds how late the generator may send its p99 request.
const maxLateMs = 10.0

// runServe is a serve workload: open-loop windows of c.window at c.rps
// filling c.seconds, each over freshly started processes, with every
// answer recomputed. Latency percentiles pool all windows. The traced
// variant repeats the windows instrumented and adds in-process replays.
func runServe(c *config, spec serveSpec) *Result {
	r := newResult()
	windows, err := windowBodies(c, spec.repeat)
	if err != nil {
		r.Fail("generate: %v", err)
		return r
	}
	p, err := measure(c, spec, windows, false)
	if err != nil {
		r.Fail("measure: %v", err)
		return r
	}
	v := newVerifier()
	p.settle(v, r)
	late := p.lateP99(r)
	if c.trace {
		serveLayers(c, spec, r, windows, p, v)
		return r
	}
	lat := p.tally.Latencies()
	r.Set("setup_s", "s", Median(p.setups), len(p.setups))
	r.Set("wall_s", "s", p.wall.Seconds(), len(p.rss))
	r.Set("cpu_s", "s", p.cpu.Seconds(), len(p.rss))
	// The mean, not the median: a window's high-water mark is bimodal
	// (whether the ledger's next growth step landed inside it), and the
	// mean follows the mix of the two smoothly where a median jumps.
	r.Set("peak_rss_mb", "MB", mean(p.rss), len(p.rss))
	setPercentile(r, "p50_ms", lat, 0.50)
	setPercentile(r, "p90_ms", lat, 0.90)
	// The p99 is reported by the traced run (client.p99_ms): on shared
	// vCPUs it spread 23-26% over ten seeds, wider than any bound an
	// end-to-end metric may have.
	if v, ok := Percentile(lat, 0.99); ok {
		r.Note("p99 %.3f ms over %d requests", v, len(lat))
	}
	if p.tally.OK > 0 {
		r.Set("cpu_ms_per_req", "ms", ms(p.cpu)/float64(p.tally.OK), p.tally.OK)
	}
	r.Note("%d requests at %.0f rps in %d windows of %v, gen late p99 %.3fms",
		len(p.outs), c.rps, len(windows), c.window, late)
	return r
}

// setPercentile reports a latency percentile in ms when the percentile
// rule allows it, and says why not otherwise.
func setPercentile(r *Result, name string, samples []float64, q float64) {
	v, ok := Percentile(samples, q)
	if !ok {
		r.withheld[name] = true
		r.Note("%s not reported: %d samples leave fewer than %d beyond it", name, len(samples), minBeyond)
		return
	}
	r.Set(name, "ms", v, len(samples))
}
