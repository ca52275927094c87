// Command perfbench is the repository's end-to-end benchmark: it drives a
// real mvdbd over loopback HTTP (--trace 0) or replays the same request
// streams in-process with a span per layer call (--trace 1), checks every
// answer it samples against a reference index, and prints one JSON summary
// as its last line. See README.md for the workloads and metrics; run it
// through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload read_scan --seed 1 --seconds 8 --trace 0
//	bash perfbench/run.sh --steady 10            # every workload, seeds 1..10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// benchAuthors is the aid domain of the generated DBLP dataset
// (mvdbd -authors) every workload runs against.
const benchAuthors = 8000

func main() {
	var (
		workload = flag.String("workload", "", "workload: read_scan | read_span | write_mixed")
		seed     = flag.Int64("seed", 1, "request-stream seed")
		seconds  = flag.Float64("seconds", 8, "length of the timed phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics from mvdbd; 1: per-layer metrics from the traced in-process run")
		mvdbd    = flag.String("mvdbd", "", "path of the mvdbd binary (run.sh builds it)")
		buildDir = flag.String("build-dir", ".bench_build", "directory for build outputs, WAL directories and run records")
		steady   = flag.Int("steady", 0, "steadiness mode: run every workload this many times (seeds 1..N) and summarize the spread")
		only     = flag.String("workloads", "", "steadiness mode: comma-separated workloads (default all)")
	)
	flag.Parse()
	if err := os.MkdirAll(*buildDir, 0o755); err != nil {
		fail(err)
	}
	abs, err := filepath.Abs(*buildDir)
	if err != nil {
		fail(err)
	}
	if *steady > 0 {
		if err := runSteady(*steady, *only, *trace, *mvdbd, abs); err != nil {
			fail(err)
		}
		return
	}
	if !knownWorkload(*workload) {
		fail(fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloadNames))
	}
	meta, err := hostMeta()
	if err != nil {
		fail(err)
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, authors: benchAuthors,
		mvdbd: *mvdbd, buildDir: abs, treeHash: meta.TreeSHA256,
	}
	var cal []float64
	calibrateN := func() {
		for i := 0; i < 3; i++ {
			cal = append(cal, calibrate())
		}
	}
	calibrateN()
	t0 := time.Now()
	var (
		res  *result
		info map[string]float64
	)
	if *trace == 1 {
		res, info, err = runTraced(cfg)
	} else {
		if cfg.mvdbd == "" {
			fail(fmt.Errorf("--mvdbd is required for the end-to-end run"))
		}
		res, info, err = runE2E(cfg)
	}
	if err != nil {
		fail(err)
	}
	calibrateN()
	info["host_cal_ms"] = median(cal)
	rec := runRecord{
		Time: t0.UTC().Format(time.RFC3339), Workload: *workload, Seed: *seed, Seconds: *seconds,
		Trace: *trace, WallS: time.Since(t0).Seconds(), Host: meta, Info: info, Result: res,
	}
	if err := appendRecord(abs, rec); err != nil {
		fail(err)
	}
	line, err := json.Marshal(map[string]any{"host": meta, "info": info})
	if err != nil {
		fail(err)
	}
	fmt.Printf("# %s\n", line)
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
