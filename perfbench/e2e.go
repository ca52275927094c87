package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mvdb/internal/core"
)

// The end-to-end run (--trace 0): a real mvdbd child over loopback HTTP,
// one client in a closed loop, every mvdbd started with
// "-authors N -seed 1 -wal-dir <dir> -snapshot-interval 0" (durable writes,
// default 2 ms group-commit window, snapshots only on drain). Every
// workload
//
//  1. boots mvdbd setupBoots times on empty WAL directories (exec → first
//     /readyz 200); the last boot serves,
//  2. sends update batches: the read workloads send readSteadyBatches
//     weight-only batches right after the boot, before their reads, where
//     the server's state is the same for each of them; write_mixed
//     interleaves structural batches with reads in its timed phase,
//  3. runs its timed phase.
//
// write_mixed also goes through the write path's life cycle: a clean SIGTERM
// restart before the timed phase (which leaves a snapshot on disk), the
// first structural batch after it, and a SIGKILL and restart at the end,
// after which the answers read just before the kill must come back
// unchanged.

const (
	setupBoots        = 3
	readSteadyBatches = 30
	// warmRequests are untimed requests sent before the timed phase of the
	// never-repeating workloads (connection set-up, lazy engine indexes).
	warmRequests = 20
	// checkSamples bounds the in-phase answers compared to the reference.
	checkSamples = 64
	// recoverySamples is the number of untouched students re-read after the
	// crash, beside every touched one.
	recoverySamples = 16
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	authors  int
	mvdbd    string
	buildDir string
	treeHash string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and failures; the first few failures are
// reported on stderr.
type tally struct{ attempted, failed int }

func (t *tally) op(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
		}
		return false
	}
	return true
}

// sampled is one HTTP answer kept for the reference comparison.
type sampled struct {
	query string
	body  []byte
}

func runE2E(cfg runConfig) (*result, map[string]float64, error) {
	runDir, err := os.MkdirTemp(cfg.buildDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(runDir)
	var t tally
	info := map[string]float64{}
	walDir := filepath.Join(runDir, "wal")
	args := func(dir string) []string {
		return []string{"-authors", strconv.Itoa(cfg.authors), "-seed", "1",
			"-wal-dir", dir, "-snapshot-interval", "0"}
	}
	logPath := func(name string) string { return filepath.Join(runDir, name+".log") }
	s := newStream(cfg.workload, cfg.seed, cfg.authors)

	// 1. Set-up: fresh boots on empty WAL directories; the last one serves.
	var setups []float64
	var srv *child
	defer func() {
		if srv != nil {
			srv.kill() // no child outlives a failed run
		}
	}()
	for b := 0; b < setupBoots; b++ {
		dir := walDir
		if b < setupBoots-1 {
			dir = filepath.Join(runDir, fmt.Sprintf("wal-setup%d", b))
		}
		c, d, err := startChild(cfg.mvdbd, logPath(fmt.Sprintf("boot%d", b)), args(dir)...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if b < setupBoots-1 {
			c.kill()
		} else {
			srv = c
		}
	}
	restart := func(name string, crash bool) (float64, error) {
		var err error
		if crash {
			srv.kill()
		} else {
			err = srv.stop()
		}
		srv = nil
		if err != nil {
			return 0, fmt.Errorf("SIGTERM: %w", err)
		}
		c, d, err := startChild(cfg.mvdbd, logPath(name), args(walDir)...)
		if err != nil {
			return 0, err
		}
		srv = c
		return d.Seconds(), nil
	}

	var (
		qLat, uLat []float64
		samples    []sampled
		acked      [][]mutation
		touched    []int
		queryTime  time.Duration // time spent in timed /query requests
	)
	timedUpdate := func(r writeRound) (float64, bool) {
		t0 := time.Now()
		ok := t.op(srv.update(r.Batch))
		d := time.Since(t0).Seconds()
		if ok {
			acked = append(acked, r.Batch)
			touched = append(touched, r.Touched...)
		}
		return d, ok
	}
	timedQuery := func(q string, keep bool) {
		t0 := time.Now()
		body, err := srv.query(q)
		d := time.Since(t0)
		queryTime += d
		if t.op(err) {
			qLat = append(qLat, float64(d.Nanoseconds())/1e6)
			if keep && len(samples) < checkSamples {
				samples = append(samples, sampled{q, body})
			}
		}
	}
	sampleEvery := 1 + int(cfg.seed%7) // a seeded stride through the stream
	budget := time.Duration(cfg.seconds * float64(time.Second))

	if cfg.workload == "write_mixed" {
		// 2. Clean restart, then the one-off first structural batch.
		d, err := restart("restart", false)
		if err != nil {
			return nil, nil, err
		}
		info["restart_s"] = d
		info["first_update_s"], _ = timedUpdate(s.firstBatch())
		t0 := time.Now()
		for time.Since(t0) < budget {
			r := s.nextRound()
			if d, ok := timedUpdate(r); ok {
				uLat = append(uLat, d*1000)
			}
			for _, q := range r.Reads {
				timedQuery(q, false)
			}
		}
	} else {
		// Weight-only batches first, right after the boot, where the
		// server's state is the same for every read workload; the reads
		// that follow see the reweighted tuple, and so does the reference.
		st := s.student(0)
		body, err := srv.query(qAdvisorOf(st))
		if !t.op(err) {
			return nil, nil, fmt.Errorf("finding an Advisor tuple to reweight: %w", err)
		}
		var advisor int64
		if as, err := parseAnswers(body); err == nil {
			for head := range as {
				if _, err := fmt.Sscanf(head, "[%d]", &advisor); err == nil {
					break
				}
			}
		}
		if advisor == 0 {
			return nil, nil, fmt.Errorf("student %d has no advisor to reweight", st)
		}
		for i := 0; i < readSteadyBatches; i++ {
			if d, ok := timedUpdate(reweightRound(int64(st), advisor, i)); ok {
				uLat = append(uLat, d*1000)
			}
		}

		for i := 0; i < warmRequests; i++ {
			q, _ := s.nextRead(cfg.workload)
			_, err := srv.query(q)
			t.op(err)
		}
		t0 := time.Now()
		for i := 0; time.Since(t0) < budget; i++ {
			q, ok := s.nextRead(cfg.workload)
			if !ok {
				// Every window start was used once: end the phase early
				// rather than repeat a query.
				info["stream_exhausted"] = 1
				break
			}
			timedQuery(q, i%sampleEvery == 0)
		}
	}
	if len(qLat) == 0 || len(uLat) == 0 {
		return nil, nil, fmt.Errorf("no successful requests (%d failed of %d)", t.failed, t.attempted)
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, nil, err
	}

	// Reference checks, outside every timed phase. The reference index is
	// loaded only now, so the benchmark's own heap stays small while it
	// measures, and first applies the acknowledged batches (as one
	// concatenated batch, as WAL recovery does).
	ref, err := referenceIndex(cfg.buildDir, cfg.treeHash, cfg.authors)
	if err != nil {
		return nil, nil, fmt.Errorf("reference index: %w", err)
	}
	var all []core.Mutation
	for _, b := range acked {
		all = append(all, toCoreBatch(b)...)
	}
	if _, err := ref.ApplyMutations(all); err != nil {
		return nil, nil, fmt.Errorf("reference: applying acknowledged batches: %w", err)
	}
	check := func(list []sampled) {
		for _, sm := range list {
			got, err := parseAnswers(sm.body)
			if err == nil {
				var want answers
				if want, err = refQuery(ref, sm.query); err == nil {
					if msg := diff(got, want, probTolerance); msg != "" {
						err = fmt.Errorf("%q: %s", sm.query, msg)
					}
				}
			}
			t.op(err)
		}
	}
	if cfg.workload == "write_mixed" {
		// 3. Crash and recover: the answers read just before the kill —
		// every touched student and a few others — must survive unchanged.
		var before []sampled
		seen := map[int]bool{}
		for i := 0; i < recoverySamples; i++ {
			touched = append(touched, s.student(len(s.order)-1-i))
		}
		for _, st := range touched {
			if !seen[st] {
				seen[st] = true
				q := qAdvisorOf(st)
				body, err := srv.query(q)
				if t.op(err) {
					before = append(before, sampled{q, body})
				}
			}
		}
		if info["recover_s"], err = restart("recover", true); err != nil {
			return nil, nil, err
		}
		for _, b := range before {
			body, err := srv.query(b.query)
			if err == nil {
				var got, want answers
				if got, err = parseAnswers(body); err == nil {
					if want, err = parseAnswers(b.body); err == nil {
						if msg := diff(got, want, 0); msg != "" {
							err = fmt.Errorf("after recovery, %q: %s", b.query, msg)
						}
					}
				}
			}
			t.op(err)
		}
		check(before)
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, nil, fmt.Errorf("stopping mvdbd: %w", err)
	}
	check(samples)

	info["query_p99_ms"] = quantile(qLat, 0.99)
	info["update_p90_ms"] = quantile(uLat, 0.9)
	info["update_slow_share"] = slowShare(uLat)
	info["query_count"] = float64(len(qLat))
	info["update_count"] = float64(len(uLat))
	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":       {median(setups), "s"},
			"query_p50_ms":  {quantile(qLat, 0.5), "ms"},
			"query_p90_ms":  {quantile(qLat, 0.9), "ms"},
			"query_qps":     {float64(len(qLat)) / queryTime.Seconds(), "1/s"},
			"update_p50_ms": {quantile(uLat, 0.5), "ms"},
			"peak_rss_mb":   {rss, "MB"},
		},
	}, info, nil
}

// slowShare is the share of update batches slower than three times the
// run's fastest one. On write_mixed it shows how far the run's batches are
// from putting update_p50_ms in the slow mode (a share above one half).
func slowShare(lat []float64) float64 {
	lo, _ := minMax(lat)
	slow := 0
	for _, d := range lat {
		if d > 3*lo {
			slow++
		}
	}
	return float64(slow) / float64(len(lat))
}
