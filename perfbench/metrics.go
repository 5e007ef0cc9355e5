package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail never rests on one or
// two requests.
const minBeyond = 10

// nameRE is the metric-name grammar shared with BENCHMARK.json.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Metric is one reported number. Samples is how many measurements the
// value summarises; it is printed in the human table, not in the JSON.
type Metric struct {
	Value   float64
	Unit    string
	Samples int
}

// Result is one run's outcome: the operations attempted and failed, and
// the metrics in the order they were added.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	names     []string
	metrics   map[string]Metric
	withheld  map[string]bool // percentiles the rule forbade reporting
	notes     []string
}

func newResult() *Result {
	return &Result{Correct: true, metrics: make(map[string]Metric), withheld: make(map[string]bool)}
}

// Set records a metric; a name outside the grammar or used twice is a
// bug in the benchmark, so it panics.
func (r *Result) Set(name, unit string, v float64, samples int) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("perfbench: bad metric name %q", name))
	}
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("perfbench: metric %q set twice", name))
	}
	r.names = append(r.names, name)
	r.metrics[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

// Get returns a metric recorded earlier.
func (r *Result) Get(name string) (Metric, bool) {
	m, ok := r.metrics[name]
	return m, ok
}

// Fail marks the run's outputs incorrect and says why.
func (r *Result) Fail(format string, args ...any) {
	r.Correct = false
	r.Note("FAIL: "+format, args...)
}

// Note adds a line to the human report.
func (r *Result) Note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// Write prints the human table (every metric with its unit and sample
// count) and then, as the last line, the JSON object.
func (r *Result) Write(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "# %-36s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]jsonMetric, len(r.names))}
	for _, n := range r.names {
		m := r.metrics[n]
		v := m.Value
		// JSON has no infinities: a tail made of failed operations is
		// reported as the largest finite number.
		if math.IsInf(v, 1) {
			v = math.MaxFloat64
		}
		out.Metrics[n] = jsonMetric{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// Percentile returns the nearest-rank q-quantile of samples and whether
// it may be reported: at least minBeyond samples must lie beyond it.
// Failed operations enter as +Inf, so they sort last and can only push a
// percentile up.
func Percentile(samples []float64, q float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i], len(s)-1-i >= minBeyond
}

// Median is the 0.5 percentile without the reporting rule: it summarises
// a handful of repeated whole-run measurements (set-up times, batch
// runs), not a latency distribution.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Tally counts logical operations. Every attempted operation ends in
// exactly one of OK or failed, and a failed one is +Inf latency.
type Tally struct {
	OK        int
	Failed    int
	latencies []float64 // ms
}

// Add records one operation's outcome.
func (t *Tally) Add(ok bool, lat time.Duration) {
	if ok {
		t.OK++
		t.latencies = append(t.latencies, float64(lat)/float64(time.Millisecond))
		return
	}
	t.Failed++
	t.latencies = append(t.latencies, math.Inf(1))
}

// Attempted is OK + Failed, by construction.
func (t *Tally) Attempted() int { return t.OK + t.Failed }

// Latencies returns every attempted operation's latency in ms.
func (t *Tally) Latencies() []float64 { return t.latencies }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
