package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, b := dump(w, 7, 8000, 300), dump(w, 7, 8000, 300)
		if a != b {
			t.Errorf("%s: the same seed gave different streams", w)
		}
		if c := dump(w, 8, 8000, 300); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w)
		}
	}
}

func TestScanAndSpanNeverRepeat(t *testing.T) {
	for _, w := range []string{"read_scan", "read_span"} {
		s := newStream(w, 3, 8000)
		seen := map[string]bool{}
		for {
			q, ok := s.nextRead(w)
			if !ok {
				break
			}
			if seen[q] {
				t.Fatalf("%s repeated %q", w, q)
			}
			seen[q] = true
		}
		// Room for more than the requests a 16 s phase sends on a 2-vCPU
		// host (about 8000 scans or 1900 span queries).
		if want := map[string]int{"read_scan": 23000, "read_span": 2900}[w]; len(seen) < want {
			t.Errorf("%s: only %d distinct queries before exhaustion, want %d", w, len(seen), want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// smokeAuthors is the smoke run's tiny domain: still room for the range
// windows and the students the update batches touch.
const smokeAuthors = 500

// TestSmoke runs every workload end to end and traced on a tiny domain and
// checks that each prints every metric BENCHMARK.json names, with its unit,
// and no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots mvdbd")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark knows %d", len(spec.Workloads), len(workloadNames))
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mvdbd")
	if out, err := exec.Command("go", "build", "-o", bin, "mvdb/cmd/mvdbd").CombinedOutput(); err != nil {
		t.Fatalf("building mvdbd: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		if !knownWorkload(w.Name) {
			t.Fatalf("BENCHMARK.json workload %q is unknown", w.Name)
		}
		cfg := runConfig{workload: w.Name, seed: 1, seconds: 0.3, authors: smokeAuthors,
			mvdbd: bin, buildDir: dir, treeHash: strings.Repeat("0", 64)}
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			run := runE2E
			if trace == 1 {
				run = runTraced
			}
			res, _, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// dump renders the first n requests of a workload's stream, one per line —
// the byte-level identity the self-tests compare across seeds.
func dump(workload string, seed int64, authors, n int) string {
	s := newStream(workload, seed, authors)
	var b strings.Builder
	if workload == "write_mixed" {
		fmt.Fprintf(&b, "%v\n", s.firstBatch())
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%v\n", s.nextRound())
		}
		return b.String()
	}
	for i := 0; i < n; i++ {
		q, ok := s.nextRead(workload)
		if !ok {
			break
		}
		b.WriteString(q)
		b.WriteByte('\n')
	}
	return b.String()
}
