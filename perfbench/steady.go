package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Steadiness mode: run every workload N times with seeds 1..N and report,
// per metric, the median, the quartiles, the quartile spread (Q3-Q1)/median
// that decides whether the benchmark is steady, and (max-min)/median. A
// metric whose quartile spread exceeds its bound in BENCHMARK.json is
// flagged, and so is every run that reports correct=false or a failed
// operation. Every run's raw summary is kept in runs.jsonl next to the
// build.

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func runSteady(n int, only string, trace int, mvdbd, buildDir string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	workloads := workloadNames
	if only != "" {
		workloads = strings.Split(only, ",")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	flagged := 0
	for _, w := range workloads {
		values := map[string][]float64{}
		var names []string
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", strconv.Itoa(trace),
				"--mvdbd", mvdbd, "--build-dir", buildDir)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			t0 := time.Now()
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: bad summary: %w", w, seed, err)
			}
			mark := ""
			if !res.Correct || res.Failed > 0 {
				mark = "  FAILED OPERATIONS"
				flagged++
			}
			fmt.Printf("%s seed %d (%.0fs): correct=%v attempted=%d failed=%d%s\n",
				w, seed, time.Since(t0).Seconds(), res.Correct, res.Attempted, res.Failed, mark)
			add := func(name string, v float64) {
				if _, ok := values[name]; !ok {
					names = append(names, name)
				}
				values[name] = append(values[name], v)
			}
			for name, m := range res.Metrics {
				add(name, m.Value)
			}
			// The host's speed, from the "#" line: it shows whether a
			// spread is the host's drift.
			var extra struct {
				Info map[string]float64 `json:"info"`
			}
			if len(lines) > 1 && json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "# ")), &extra) == nil {
				if v, ok := extra.Info["host_cal_ms"]; ok {
					add("host_cal_ms", v)
				}
			}
		}
		sort.Strings(names)
		fmt.Printf("\n%s (%d runs)\n%-28s %12s %12s %12s %9s %9s %7s\n",
			w, n, "metric", "q1", "median", "q3", "iqr/med", "rng/med", "bound")
		for _, name := range names {
			vs := values[name]
			q1, q2, q3 := quartiles(vs)
			lo, hi := minMax(vs)
			spread := (q3 - q1) / q2
			mark := ""
			if b, ok := bounds[name]; ok && spread > b {
				mark = "  OVER BOUND"
				flagged++
			} else if ok && spread > b/3 {
				mark = "  above bound/3"
			}
			bound := "-"
			if b, ok := bounds[name]; ok {
				bound = strconv.FormatFloat(b, 'f', 2, 64)
			}
			fmt.Printf("%-28s %12.4f %12.4f %12.4f %9.3f %9.3f %7s%s\n",
				name, q1, q2, q3, spread, (hi-lo)/q2, bound, mark)
		}
		fmt.Println()
	}
	fmt.Printf("raw per-run summaries: %s\n", filepath.Join(buildDir, "runs.jsonl"))
	if flagged > 0 {
		return fmt.Errorf("%d flag(s): metrics spread beyond their bound or runs with failed operations", flagged)
	}
	return nil
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
