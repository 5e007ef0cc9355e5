package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // reversed: Percentile must sort
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly ten samples beyond
		{999, 0.99, 990, false}, // nine beyond
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
	}
	for _, c := range cases {
		v, ok := Percentile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("Percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
	if _, ok := Percentile(nil, 0.5); ok {
		t.Error("Percentile of no samples reported ok")
	}
}

func TestFailuresAreInfiniteLatency(t *testing.T) {
	var tl Tally
	for i := 0; i < 1000; i++ {
		tl.Add(true, time.Millisecond)
	}
	p99, _ := Percentile(tl.Latencies(), 0.99)
	// Failing requests can only push the tail up, never down: once more
	// than 1% of the requests fail, the p99 is +Inf.
	for i := 0; i < 11; i++ {
		tl.Add(false, 0)
	}
	p99f, ok := Percentile(tl.Latencies(), 0.99)
	if !ok || !math.IsInf(p99f, 1) || p99f < p99 {
		t.Fatalf("p99 with 11 failures in 1011 = %v (ok %v), want +Inf", p99f, ok)
	}
	r := newResult()
	r.Set("p99_ms", "ms", p99f, tl.Attempted())
	var out bytes.Buffer
	if err := r.Write(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"value":1.7976931348623157e+308`) {
		t.Errorf("+Inf not reported as the largest finite number: %s", out.String())
	}
}

func TestAttemptedIsOKPlusFailed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tl Tally
	for i := 0; i < 500; i++ {
		tl.Add(rng.Intn(7) != 0, time.Duration(rng.Intn(1000))*time.Microsecond)
		if tl.Attempted() != tl.OK+tl.Failed || len(tl.Latencies()) != tl.Attempted() {
			t.Fatalf("after %d adds: attempted %d, ok %d, failed %d, %d latencies",
				i+1, tl.Attempted(), tl.OK, tl.Failed, len(tl.Latencies()))
		}
	}
	if tl.Failed == 0 || tl.OK == 0 {
		t.Fatal("test stream should mix outcomes")
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, good := range []string{"p99_ms", "service.server_ms.p50", "trace.build_profiles_ms.SimpleALU", "gen.late_ms.p99", "0x-1"} {
		if !nameRE.MatchString(good) {
			t.Errorf("%q rejected", good)
		}
	}
	for _, bad := range []string{"", ".p99", "p99 ms", "p99/ms", "lat{q=99}", strings.Repeat("a", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Set accepted a name outside the grammar")
		}
	}()
	newResult().Set("bad name", "ms", 1, 1)
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// code emits in step: same names, same units, all within the grammar.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(got[i].Name) {
				t.Errorf("%s: %q outside the name grammar", kind, got[i].Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q in BENCHMARK.json has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
}
