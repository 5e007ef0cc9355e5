package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"synts/internal/core"
	"synts/internal/exp"
	"synts/internal/obs"
	"synts/internal/service"
	"synts/internal/simprof"
	"synts/internal/telemetry"
	"synts/internal/trace"
	"synts/internal/workload"
)

// perLayer lists every per-layer metric the traced run emits, with its
// unit. A layer a workload never reaches reports 0 from 0 samples.
var perLayer = []struct{ name, unit string }{
	{"core.solve_poly_us", "us"},
	{"core.solve_poly_allocs_per_call", "count"},
	{"telemetry.events_per_req", "count"},
	{"telemetry.record_us_per_req", "us"},
	{"runtime.gc_count", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_alloc_mb", "MB"},
	{"obs.span_us", "us"},
	{"service.decode_us", "us"},
	{"service.handle_us", "us"},
	{"service.server_ms.p50", "ms"},
	{"service.server_ms.p99", "ms"},
	{"service.queue_ms.p99", "ms"},
	{"service.solve_ms.p50", "ms"},
	{"service.solve_ms.p99", "ms"},
	{"fleet.route_ms.p50", "ms"},
	{"fleet.route_ms.p99", "ms"},
	{"outside_server_ms.p99", "ms"},
	{"client.p99_ms", "ms"},
	{"service.warm_hit_frac", "frac"},
	{"service.coalesce_hits", "count"},
	{"service.shed", "count"},
	{"fleet.failovers", "count"},
	{"trace.build_profiles_ms.Decode", "ms"},
	{"trace.build_profiles_ms.SimpleALU", "ms"},
	{"trace.build_profiles_ms.ComplexALU", "ms"},
	{"trace.profiles", "count"},
	{"gpgpu.fig5_10_ms", "ms"},
	{"workload.run_kernel_ms", "ms"},
	{"workload.instructions", "count"},
	{"mcsim.run_ms", "ms"},
	{"batch.unattributed_frac", "frac"},
	{"gen.late_ms.p99", "ms"},
	{"trace_overhead.p50_ms", "ms"},
	{"trace_overhead.cpu_s", "s"},
}

// fillIdleLayers reports 0 for every per-layer metric the workload did
// not exercise.
func fillIdleLayers(r *Result) {
	for _, m := range perLayer {
		if _, ok := r.Get(m.name); !ok && !r.withheld[m.name] {
			r.Set(m.name, m.unit, 0, 0)
		}
	}
}

// span is one benchmark-side span. Spans derived from a response's
// timing headers have a duration but no start of their own.
type span struct {
	Req     int     `json:"req"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us,omitempty"`
	DurUs   float64 `json:"dur_us"`
}

// spanLog keeps spans in memory and writes them out once, at the end.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(req, parent int, name string, start time.Time, dur time.Duration) int {
	s := span{Req: req, ID: len(l.spans) + 1, Parent: parent, Name: name, DurUs: float64(dur) / 1e3}
	if !start.IsZero() {
		s.StartUs = float64(start.Sub(l.t0)) / 1e3
	}
	l.spans = append(l.spans, s)
	return s.ID
}

// timed runs fn inside a span.
func (l *spanLog) timed(name string, fn func() error) (time.Duration, error) {
	t := time.Now()
	err := fn()
	d := time.Since(t)
	l.add(0, 0, name, t, d)
	return d, err
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveLayers is the traced serve run. A second fresh fleet serves the
// same stream while the benchmark records a span per request around
// fleet.Client.Do, with children taken from the daemon's and router's
// timing headers, and reads the daemons' counters around the window.
// Then the workload's own bodies are replayed in-process through the
// public functions each layer exposes.
func serveLayers(c *config, spec serveSpec, r *Result, windows [][][]byte, base *servePass, v *verifier) {
	p, err := measure(c, spec, windows, true)
	if err != nil {
		r.Fail("traced measure: %v", err)
		return
	}
	p.settle(v, r)

	log := &spanLog{t0: p.outs[0].due}
	var server, queue, solve, route, outside []float64
	warm, coalesced, shed := 0, 0, 0
	for i, o := range p.outs {
		if o.shed != "" {
			shed++
		}
		root := log.add(i, 0, "client.do", o.sent, o.done.Sub(o.sent))
		if !p.ok[i] {
			continue
		}
		if o.warm {
			warm++
		}
		if o.coalesced {
			coalesced++
		}
		outer := o.serverNs
		if o.routeNs >= 0 {
			outer = o.routeNs
			d := o.routeNs - o.serverNs
			log.add(i, root, "fleet.route", time.Time{}, time.Duration(d))
			route = append(route, float64(d)/1e6)
		}
		srv := log.add(i, root, "service.server", time.Time{}, time.Duration(o.serverNs))
		server = append(server, float64(o.serverNs)/1e6)
		if o.queueNs >= 0 {
			log.add(i, srv, "service.queue", time.Time{}, time.Duration(o.queueNs))
			queue = append(queue, float64(o.queueNs)/1e6)
		}
		if o.solveNs >= 0 {
			log.add(i, srv, "service.solve", time.Time{}, time.Duration(o.solveNs))
			solve = append(solve, float64(o.solveNs)/1e6)
		}
		outside = append(outside, ms(o.done.Sub(o.sent))-float64(outer)/1e6)
	}
	path := filepath.Join(c.workDir, fmt.Sprintf("spans-%s-%d.jsonl", c.workload, c.seed))
	if err := log.write(path); err != nil {
		r.Fail("write spans: %v", err)
	}

	layerPct(r, "service.server_ms.p50", server, 0.50)
	layerPct(r, "service.server_ms.p99", server, 0.99)
	layerPct(r, "service.queue_ms.p99", queue, 0.99)
	layerPct(r, "service.solve_ms.p50", solve, 0.50)
	layerPct(r, "service.solve_ms.p99", solve, 0.99)
	layerPct(r, "fleet.route_ms.p50", route, 0.50)
	layerPct(r, "fleet.route_ms.p99", route, 0.99)
	layerPct(r, "outside_server_ms.p99", outside, 0.99)
	setPercentile(r, "client.p99_ms", base.tally.Latencies(), 0.99)
	okN := p.tally.OK
	if okN > 0 {
		r.Set("service.warm_hit_frac", "frac", float64(warm)/float64(okN), okN)
	}
	r.Set("service.coalesce_hits", "count", float64(coalesced), okN)
	r.Set("service.shed", "count", float64(shed), len(p.outs))
	r.Set("fleet.failovers", "count", float64(p.failovers), len(p.outs))
	late, _ := Percentile(p.late, 0.99)
	r.Set("gen.late_ms.p99", "ms", late, len(p.late))

	var events, gcs, pause, heap float64
	for i := range p.before {
		events += p.after[i].Events - p.before[i].Events
		gcs += p.after[i].MemStats.NumGC - p.before[i].MemStats.NumGC
		pause += p.after[i].MemStats.PauseTotalNs - p.before[i].MemStats.PauseTotalNs
		heap += p.after[i].MemStats.HeapAlloc
	}
	if okN > 0 {
		r.Set("telemetry.events_per_req", "count", events/float64(okN), okN)
	}
	// Counters are summed over the daemons and windows; the heap is the
	// daemons' total at the end of a window, averaged over the windows.
	r.Set("runtime.gc_count", "count", gcs, len(p.before))
	r.Set("runtime.gc_pause_ms", "ms", pause/1e6, len(p.before))
	r.Set("runtime.heap_alloc_mb", "MB", heap/float64(len(windows))/(1<<20), len(p.before))

	p50t, _ := Percentile(p.tally.Latencies(), 0.50)
	p50u, _ := Percentile(base.tally.Latencies(), 0.50)
	r.Set("trace_overhead.p50_ms", "ms", p50t-p50u, 2)
	r.Set("trace_overhead.cpu_s", "s", p.cpu.Seconds()-base.cpu.Seconds(), 2)
	r.Note("tracing overhead: p50 %.4f -> %.4f ms, serving cpu %.3f -> %.3f s (untraced -> traced)",
		p50u, p50t, base.cpu.Seconds(), p.cpu.Seconds())

	replayLayers(c, spec, r, p.bodies, v)
	fillIdleLayers(r)
}

// layerPct reports a per-layer percentile: 0 from 0 samples when the
// layer is not on this workload's path, nothing (with a note) when the
// percentile rule forbids it.
func layerPct(r *Result, name string, samples []float64, q float64) {
	if len(samples) == 0 {
		r.Set(name, "ms", 0, 0)
		return
	}
	setPercentile(r, name, samples, q)
}

// maxReplay bounds the in-process replay: enough calls for a steady
// median without growing the process-wide ledger without limit.
const maxReplay = 2000

// replayLayers replays the workload's request bodies in-process through
// each layer's public function and reports the median cost per call.
func replayLayers(c *config, spec serveSpec, r *Result, bodies [][]byte, v *verifier) {
	if len(bodies) > maxReplay {
		bodies = bodies[:maxReplay]
	}
	n := len(bodies)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	durs := make([]float64, n)

	// Request decode.
	reqs := make([]service.SolveRequest, n)
	for i, b := range bodies {
		t := time.Now()
		err := json.Unmarshal(b, &reqs[i])
		durs[i] = us(time.Since(t))
		if err != nil {
			r.Fail("decode replay: %v", err)
			return
		}
	}
	r.Set("service.decode_us", "us", Median(durs), n)

	// SolvePoly on each request's threads, allocations counted around
	// the solve calls alone.
	cfgs := make([]*core.Config, n)
	ths := make([][]core.Thread, n)
	for i := range reqs {
		var err error
		if cfgs[i], ths[i], _, err = v.threads(&reqs[i]); err != nil {
			r.Fail("solve replay: %v", err)
			return
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		t := time.Now()
		core.SolvePoly(cfgs[i], ths[i], reqs[i].Theta)
		durs[i] = us(time.Since(t))
	}
	runtime.ReadMemStats(&m1)
	r.Set("core.solve_poly_us", "us", Median(durs), n)
	r.Set("core.solve_poly_allocs_per_call", "count", float64(m1.Mallocs-m0.Mallocs)/float64(n), n)

	// The ledger events one answered request records.
	telemetry.Enable()
	for i := range reqs {
		want, err := v.expect(&reqs[i])
		if err != nil {
			r.Fail("ledger replay: %v", err)
			return
		}
		evs := ledgerEvents(&reqs[i], cfgs[i], ths[i], want)
		t := time.Now()
		for _, e := range evs {
			telemetry.Record(e)
		}
		durs[i] = us(time.Since(t))
	}
	r.Set("telemetry.record_us_per_req", "us", Median(durs), n)

	// One span start/end with obs enabled.
	obs.Enable()
	for i := range durs {
		t := time.Now()
		obs.StartSpan("perfbench.span").End()
		durs[i] = us(time.Since(t))
	}
	r.Set("obs.span_us", "us", Median(durs), n)

	// The whole handler, in-process through httptest, with serve's
	// instrumentation on and the workload's per-daemon shard count.
	simprof.Enable()
	shards := c.nproc
	if spec.kind == routedPair {
		shards = 1
	}
	svc, err := service.New(service.Config{Shards: shards})
	if err != nil {
		r.Fail("handler replay: %v", err)
		return
	}
	mux := http.NewServeMux()
	svc.Register(mux)
	for i, b := range bodies {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(b))
		rec := httptest.NewRecorder()
		t := time.Now()
		mux.ServeHTTP(rec, req)
		durs[i] = us(time.Since(t))
		if rec.Code != http.StatusOK {
			r.Fail("handler replay: request %d answered %d", i, rec.Code)
			break
		} else if err := v.check(b, rec.Body.Bytes()); err != nil {
			r.Fail("handler replay: request %d: %v", i, err)
			break
		}
	}
	svc.Drain()
	svc.Close()
	r.Set("service.handle_us", "us", Median(durs), n)
}

// ledgerEvents is the ledger view of one answered request, as the daemon
// records it: an estimate per plausible sampled rate, a decision per core,
// a fallback per guard-rejected core and one barrier event.
func ledgerEvents(r *service.SolveRequest, cfg *core.Config, ths []core.Thread, want *expected) []telemetry.Event {
	tsrs := exp.TSRs()
	base := telemetry.Event{Bench: r.Tenant, Stage: r.Stage, Solver: service.SolverName, Theta: r.Theta, Interval: r.Seq}
	var evs []telemetry.Event
	for i, cc := range r.Cores {
		for k, rate := range cc.Rates {
			if !(rate >= 0 && rate <= 1) {
				continue
			}
			e := base
			e.Kind, e.Core, e.TSR, e.EstErr, e.ActErr = telemetry.KindEstimate, i, tsrs[k], rate, rate
			evs = append(evs, e)
		}
		bd := cfg.Breakdown(ths[i], want.a, i)
		e := base
		e.Kind, e.Core, e.V, e.TSR = telemetry.KindDecision, i, bd.V, bd.R
		e.EstErr, e.ActErr, e.Replays, e.Energy, e.Time = bd.Err, bd.Err, bd.Replays, bd.Energy, bd.Time
		e.Instrs, e.IntervalCycles = cc.N, cc.N*cc.CPIBase
		evs = append(evs, e)
		if want.fallbacks[i] != "" {
			e := base
			e.Kind, e.Core, e.Reason = telemetry.KindFallback, i, want.fallbacks[i]
			evs = append(evs, e)
		}
	}
	e := base
	e.Kind, e.Core, e.Cores, e.Energy, e.Time = telemetry.KindBarrier, -1, len(r.Cores), want.m.Energy, want.m.TExec
	return append(evs, e)
}

// batchTotals sums one in-process batch pass by layer.
type batchTotals struct {
	kernel, gpgpu, mcsim time.Duration
	profiles             map[trace.Stage]time.Duration
	nProfiles, instrs    int
	cpu                  time.Duration
}

// batchPass drives the batch layers serially in-process: every kernel
// the batch loads (workload.RunKernel via exp.LoadBench), its profiles
// for every stage (trace.BuildProfiles via Bench.Profiles), the GPGPU
// study (exp.Fig510) and the multicore simulation (exp.Fig13). With a
// log it records a span around each layer call.
func batchPass(c *config, log *spanLog) (*batchTotals, error) {
	opts := exp.DefaultOptions()
	opts.Size = c.size
	if log == nil {
		log = &spanLog{t0: time.Now()}
	}
	cpu0 := selfCPU()
	t := &batchTotals{profiles: make(map[trace.Stage]time.Duration)}
	var fmm *exp.Bench
	for _, k := range workload.PaperSuite() {
		var b *exp.Bench
		d, err := log.timed("workload.run_kernel:"+k, func() (err error) {
			b, err = exp.LoadBench(k, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.kernel += d
		for _, s := range b.Streams {
			t.instrs += s.TotalInstructions()
		}
		for _, st := range trace.Stages() {
			var ps [][]*trace.Profile
			d, err := log.timed("trace.build_profiles:"+k+"/"+st.String(), func() (err error) {
				ps, err = b.Profiles(st)
				return err
			})
			if err != nil {
				return nil, err
			}
			t.profiles[st] += d
			for _, th := range ps {
				t.nProfiles += len(th)
			}
		}
		if k == "fmm" {
			fmm = b
		}
	}
	for _, prog := range []string{"BlackScholes", "MatrixMult", "BinarySearch", "FFT", "EigenValue", "StreamCluster"} {
		d, err := log.timed("gpgpu.fig5_10:"+prog, func() error {
			_, _, err := exp.Fig510(prog, 16000/6, opts.Seed)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.gpgpu += d
	}
	d, err := log.timed("mcsim.fig1_3", func() error {
		_, _, _, err := exp.Fig13(fmm, trace.SimpleALU, 100)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.mcsim = d
	t.cpu = selfCPU() - cpu0
	return t, nil
}

// selfCPU is this process's user+sys CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// batchLayers is the traced batch run: the in-process pass once without
// and once with spans (the difference is the tracing overhead), then
// per-layer totals from the spans. The share of the -j 1 reference run's
// wall time that no layer span covers is batch.unattributed_frac.
func batchLayers(c *config, r *Result, ref batchRun) {
	plain, err := batchPass(c, nil)
	if err != nil {
		r.Fail("batch pass: %v", err)
		return
	}
	runtime.GC()
	log := &spanLog{t0: time.Now()}
	t, err := batchPass(c, log)
	if err != nil {
		r.Fail("traced batch pass: %v", err)
		return
	}
	path := filepath.Join(c.workDir, fmt.Sprintf("spans-%s-%d.jsonl", c.workload, c.seed))
	if err := log.write(path); err != nil {
		r.Fail("write spans: %v", err)
	}
	r.Attempted = len(log.spans)
	for _, st := range trace.Stages() {
		r.Set("trace.build_profiles_ms."+st.String(), "ms", ms(t.profiles[st]), len(workload.PaperSuite()))
	}
	r.Set("trace.profiles", "count", float64(t.nProfiles), 1)
	r.Set("gpgpu.fig5_10_ms", "ms", ms(t.gpgpu), 6)
	r.Set("workload.run_kernel_ms", "ms", ms(t.kernel), len(workload.PaperSuite()))
	r.Set("workload.instructions", "count", float64(t.instrs), 1)
	r.Set("mcsim.run_ms", "ms", ms(t.mcsim), 1)
	covered := t.kernel + t.gpgpu + t.mcsim
	for _, d := range t.profiles {
		covered += d
	}
	r.Set("batch.unattributed_frac", "frac", 1-covered.Seconds()/ref.wall.Seconds(), 1)
	r.Set("trace_overhead.cpu_s", "s", t.cpu.Seconds()-plain.cpu.Seconds(), 2)
	r.Note("tracing overhead: in-process batch pass cpu %.3f -> %.3f s (untraced -> traced); layer spans cover %.3f of %.3f s serial batch wall",
		plain.cpu.Seconds(), t.cpu.Seconds(), covered.Seconds(), ref.wall.Seconds())
	fillIdleLayers(r)
}
