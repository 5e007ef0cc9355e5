package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, at a toy size
// against a freshly built synts binary: a few seconds per workload
// instead of a full measuring run. It checks the runs complete with
// correct outputs, no failed operations and every metric present (bar
// percentiles too few samples withheld), not their numbers.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs synts")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "synts")
	if out, err := exec.Command("go", "build", "-o", bin, "synts/cmd/synts").CombinedOutput(); err != nil {
		t.Fatalf("build synts: %v\n%s", err, out)
	}
	work := filepath.Join(dir, "run")
	if err := os.Mkdir(work, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"batch-all", "serve-unique", "route-repeat"} {
		for _, traced := range []bool{false, true} {
			c := &config{
				workload: name, seed: 7, seconds: time.Second, trace: traced,
				synts: bin, workDir: work,
				nproc: 2, size: 1, rps: 100, setups: 1, window: time.Second,
			}
			start := time.Now()
			r := workloads[name](c)
			t.Logf("%s trace=%v: %v, attempted %d, failed %d, notes %q", name, traced, time.Since(start).Round(time.Millisecond), r.Attempted, r.Failed, r.notes)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, attempted %d, failed %d", name, traced, r.Correct, r.Attempted, r.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, m := range want {
				if _, ok := r.Get(m.name); !ok && !r.withheld[m.name] {
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m.name)
				}
			}
		}
	}
}
