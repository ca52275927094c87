package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/mvindex"
	"mvdb/internal/obdd"
	"mvdb/internal/qcache"
	"mvdb/internal/server"
	"mvdb/internal/ucq"
	"mvdb/internal/wal"
)

// The traced run (--trace 1) replays a seeded sample of the workload's
// stream in-process and single-threaded, through the same public calls the
// /query handler makes (decode, ucq.Parse, ValidateQuery,
// ucq.FingerprintQuery, Index.Query), and splits every uncached evaluation
// into its layers: ucq.Eval, then per answer Manager.NewScratch,
// obdd.BuildDNF and Index.IntersectLineage. Every workload also runs the
// write-path probe: WAL append+sync, Index.ApplyMutations, snapshot save and
// load, WAL replay and server.OpenLive.

// Read-sample sizes: enough requests for steady medians while the whole
// traced run stays within a few seconds of work. write_mixed's sample is
// the reads of the write probe's rounds.
var tracedSample = map[string]int{"read_scan": 120, "read_span": 50}

const (
	traceSteadyBatches = 8
	serveSample        = 100 // requests of the ServeHTTP and loopback passes
)

// layerStats accumulates the per-request uncached split.
type layerStats struct {
	query, eval, scratch, dnf, intersect []float64 // µs per request
	terms, nodes                         []float64
	pairs, spanLevels                    float64
	applyHits, applyMisses               uint64
	evalAllocs                           []float64
}

type tracedRun struct {
	cfg   runConfig
	tr    *tracer
	ix    *mvindex.Index
	t     tally
	split layerStats
	// front-end spans per request
	parse, fingerprint []float64
}

// The replay is single-threaded: Index.Query runs its answers one at a
// time, as the uncached split times them, so trace.coverage compares like
// with like. (The /query handler leaves Parallelism at its GOMAXPROCS
// default.)
var cc = mvindex.IntersectOptions{CacheConscious: true, Parallelism: 1}
var uncached = mvindex.IntersectOptions{CacheConscious: true, DisableCache: true, Parallelism: 1}

func runTraced(cfg runConfig) (*result, map[string]float64, error) {
	r := &tracedRun{cfg: cfg, tr: newTracer()}
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// Build, one span per layer.
	var (
		d   *dblp.Dataset
		tr  *core.Translation
		err error
	)
	root := r.tr.begin("build")
	gen := r.tr.do("dblp.generate", func() { d, err = dblp.Generate(dblp.Config{NumAuthors: cfg.authors, Seed: 1}) })
	if err != nil {
		return nil, nil, err
	}
	translate := r.tr.do("core.translate", func() {
		var mv *core.MVDB
		if mv, err = d.MVDB(); err == nil {
			tr, err = mv.Translate(core.TranslateOptions{})
		}
	})
	if err != nil {
		return nil, nil, err
	}
	build := r.tr.do("mvindex.build", func() { r.ix, err = mvindex.Build(tr) })
	if err != nil {
		return nil, nil, err
	}
	r.tr.end(root)
	d, tr = nil, nil
	put("dblp.generate_s", "s", gen.Seconds())
	put("core.translate_s", "s", translate.Seconds())
	put("mvindex.build_s", "s", build.Seconds())

	// Install the default cache as mvdbd's handler does.
	server.NewWith(r.ix, server.Config{QueryTimeout: 30 * time.Second, MaxInflight: 64})
	s := newStream(cfg.workload, cfg.seed, cfg.authors)
	var cacheFrom qcache.Stats
	var lineageFrom qcache.Stats
	markCache := func() {
		cs := r.ix.CacheStats()
		cacheFrom, lineageFrom = cs.Answers, cs.Lineage
	}

	// Read sample.
	var sampleQs []string
	if n, ok := tracedSample[cfg.workload]; ok {
		for i := 0; i < warmRequests; i++ {
			s.nextRead(cfg.workload)
		}
		markCache()
		for i := 0; i < n; i++ {
			q, _ := s.nextRead(cfg.workload)
			r.request(q)
			sampleQs = append(sampleQs, q)
		}
	}
	var wp writeProbe
	if cfg.workload == "write_mixed" {
		// Reads interleave with the probe's batches, as in the end-to-end
		// stream; the first batch runs before the cache counters start.
		wp, err = r.writeProbe(s, func(rd writeRound) {
			for _, q := range rd.Reads {
				r.request(q)
				sampleQs = append(sampleQs, q)
			}
		}, markCache)
	}
	cs := r.ix.CacheStats()
	put("qcache.answer_hit_rate", "ratio", rate(cs.Answers.Hits-cacheFrom.Hits, cs.Answers.Misses-cacheFrom.Misses))
	put("qcache.lineage_hit_rate", "ratio", rate(cs.Lineage.Hits-lineageFrom.Hits, cs.Lineage.Misses-lineageFrom.Misses))
	put("qcache.evictions", "count", float64(cs.Answers.Evictions-cacheFrom.Evictions+cs.Lineage.Evictions-lineageFrom.Evictions))
	if cfg.workload != "write_mixed" {
		wp, err = r.writeProbe(s, nil, nil)
	}
	if err != nil {
		return nil, nil, err
	}

	// ucq.Eval allocations, measured apart from the spans.
	r.evalAllocs(sampleQs)

	// server.ServeHTTP with an in-process recorder, then the same handler
	// behind a loopback listener, on the same further stream requests: the
	// difference of the medians is the transport (TCP, HTTP framing, client
	// read). Both passes serve uncached, so they do the same work.
	qs := moreQueries(cfg.workload, s, sampleQs, serveSample)
	srv := server.NewWith(r.ix, server.Config{QueryTimeout: 30 * time.Second, MaxInflight: 64,
		Cache: qcache.Options{Disable: true}})
	serve, loop, allocs := r.servingPasses(srv, qs)
	put("server.serve_us", "us", median(serve))
	put("server.transport_us", "us", median(loop)-median(serve))
	put("server.allocs_per_req", "count", allocs)
	put("ucq.parse_us", "us", median(r.parse))
	put("ucq.fingerprint_us", "us", median(r.fingerprint))

	sp := r.split
	put("mvindex.query_us", "us", median(sp.query))
	put("ucq.eval_us", "us", median(sp.eval))
	put("ucq.eval_allocs", "count", median(sp.evalAllocs))
	put("ucq.lineage_terms", "count", median(sp.terms))
	put("obdd.scratch_us", "us", median(sp.scratch))
	put("obdd.build_dnf_us", "us", median(sp.dnf))
	put("obdd.query_nodes", "count", median(sp.nodes))
	put("obdd.query_apply_hit_rate", "ratio", rate(sp.applyHits, sp.applyMisses))
	put("mvindex.intersect_us", "us", median(sp.intersect))
	n := float64(len(sp.query))
	put("mvindex.pairs_visited", "count", sp.pairs/n)
	put("mvindex.span_levels", "count", sp.spanLevels/n)
	put("mvindex.pairs_per_span_width", "ratio", sp.pairs/(sp.spanLevels*float64(max(r.ix.Width(), 1))))
	phases := sum(sp.eval) + sum(sp.scratch) + sum(sp.dnf) + sum(sp.intersect)
	put("trace.coverage", "ratio", phases/sum(sp.query))
	put("trace.overhead", "ratio", r.overhead(sampleQs))

	put("mvindex.first_apply_s", "s", wp.firstApply)
	put("mvindex.apply_mutations_ms", "ms", median(wp.apply))
	put("mvindex.apply_mutations_p90_ms", "ms", quantile(wp.apply, 0.9))
	put("mvindex.blocks_recompiled", "count", median(wp.recompiled))
	put("mvindex.full_fallbacks", "count", wp.fullFallbacks)
	put("wal.append_sync_ms", "ms", median(wp.appendSync))
	put("wal.bytes_per_mutation", "B", wp.bytesPerMutation)
	put("mvindex.snapshot_save_s", "s", wp.save)
	put("mvindex.snapshot_load_s", "s", wp.load)
	put("mvindex.snapshot_mb", "MB", wp.snapMB)
	put("wal.replay_ms", "ms", wp.replay)
	put("server.open_live_s", "s", wp.openLive)

	if err := r.tr.write(filepath.Join(cfg.buildDir, "traces"),
		fmt.Sprintf("%s-seed%d-%d.json", cfg.workload, cfg.seed, os.Getpid())); err != nil {
		return nil, nil, err
	}
	info := map[string]float64{"spans": float64(len(r.tr.spans)), "requests": n}
	for name, d := range r.tr.selfByName() {
		info["self_ms."+name] = float64(d.Microseconds()) / 1000
	}
	return &result{Correct: r.t.failed == 0, Attempted: r.t.attempted, Failed: r.t.failed, Metrics: m}, info, nil
}

// request replays one /query request through the handler's public calls;
// when the cached Index.Query missed, the uncached split follows.
func (r *tracedRun) request(q string) {
	body := queryBody(q)
	r.tr.req++
	root := r.tr.begin("request")
	var (
		req struct {
			Query string `json:"query"`
		}
		pq   *ucq.Query
		err  error
		ans  []core.Answer
		miss bool
	)
	r.tr.do("server.decode", func() { err = json.Unmarshal(body, &req) })
	if err == nil {
		r.parse = append(r.parse, us(r.tr.do("ucq.parse", func() { pq, err = ucq.Parse(req.Query) })))
	}
	if err == nil {
		r.tr.do("core.validate", func() { err = r.ix.Translation().ValidateQuery(pq.UCQ) })
	}
	if err == nil {
		r.fingerprint = append(r.fingerprint, us(r.tr.do("ucq.fingerprint", func() { ucq.FingerprintQuery(pq) })))
		before := r.ix.CacheStats().Answers.Misses
		r.tr.do("mvindex.query", func() { ans, err = r.ix.Query(pq, cc) })
		miss = r.ix.CacheStats().Answers.Misses > before
	}
	r.tr.end(root)
	if !r.t.op(err) || !miss {
		return
	}
	r.split1(pq, ans)
}

// split1 is the uncached split of one query: the whole uncached
// Index.Query, then its layers call by call. The cached answers must match
// the uncached ones.
func (r *tracedRun) split1(pq *ucq.Query, cached []core.Answer) {
	var (
		want []core.Answer
		rows []ucq.AnswerRow
		err  error
	)
	root := r.tr.begin("uncached")
	qd := r.tr.do("mvindex.query_uncached", func() { want, err = r.ix.Query(pq, uncached) })
	if !r.t.op(err) {
		r.tr.end(root)
		return
	}
	if msg := diff(fromCore(cached), fromCore(want), probTolerance); msg != "" {
		r.t.op(fmt.Errorf("cached vs uncached %s: %s", pq.Name, msg))
	}
	ev := r.tr.do("ucq.eval", func() { rows, err = ucq.Eval(r.ix.Translation().DB, pq) })
	var scratch, dnf, inter time.Duration
	var terms, nodes int
	for _, row := range rows {
		var qm *obdd.Manager
		var f obdd.NodeID
		sd := r.tr.do("obdd.scratch", func() { qm = r.ix.Manager().NewScratch() })
		bd := r.tr.do("obdd.build_dnf", func() { f = obdd.BuildDNF(qm, row.Lineage) })
		h, ms := qm.ApplyCacheStats()
		r.split.applyHits += h
		r.split.applyMisses += ms
		nodes += qm.Size(f)
		terms += len(row.Lineage)
		var ierr error
		id := r.tr.do("mvindex.intersect_lineage", func() { _, ierr = r.ix.IntersectLineage(row.Lineage, uncached) })
		r.t.op(ierr)
		scratch += sd
		dnf += bd
		// IntersectLineage makes its own scratch manager and query OBDD;
		// its remainder is the intersection proper.
		inter += max(id-sd-bd, 0)
		ex, xerr := r.ix.ExplainLineage(row.Lineage, mvindex.IntersectOptions{})
		if r.t.op(xerr) {
			r.split.pairs += float64(ex.PairsVisited)
			r.split.spanLevels += float64(ex.SpanLevels)
		}
	}
	r.tr.end(root)
	if err != nil {
		r.t.op(err)
		return
	}
	sp := &r.split
	sp.query = append(sp.query, us(qd))
	sp.eval = append(sp.eval, us(ev))
	sp.scratch = append(sp.scratch, us(scratch))
	sp.dnf = append(sp.dnf, us(dnf))
	sp.intersect = append(sp.intersect, us(inter))
	sp.terms = append(sp.terms, float64(terms))
	sp.nodes = append(sp.nodes, float64(nodes))
}

// evalAllocs measures heap allocations per ucq.Eval call over the sample.
func (r *tracedRun) evalAllocs(qs []string) {
	for _, q := range qs[:min(len(qs), 50)] {
		pq, err := ucq.Parse(q)
		if !r.t.op(err) {
			continue
		}
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		_, err = ucq.Eval(r.ix.Translation().DB, pq)
		runtime.ReadMemStats(&b)
		if r.t.op(err) {
			r.split.evalAllocs = append(r.split.evalAllocs, float64(b.Mallocs-a.Mallocs))
		}
	}
}

// moreQueries continues the workload's read stream for the serving passes:
// fresh queries for the never-repeating streams (write_mixed reads
// read_scan's shape).
func moreQueries(workload string, s *stream, sample []string, n int) []string {
	if workload == "write_mixed" {
		workload = "read_scan"
	}
	out := make([]string, 0, n)
	for len(out) < n {
		q, ok := s.nextRead(workload)
		if !ok {
			return append(out, sample[:min(len(sample), n-len(out))]...)
		}
		out = append(out, q)
	}
	return out
}

// servingPasses times every query through Server.ServeHTTP with an
// in-process recorder (counting its allocations) and through a loopback
// listener in front of the same handler (from send until the body is
// read), alternating which goes first.
func (r *tracedRun) servingPasses(srv *server.Server, qs []string) (serve, loop []float64, allocs float64) {
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	viaRecorder := func(q string) {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(string(queryBody(q))))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		d := time.Since(t0)
		runtime.ReadMemStats(&b)
		serve = append(serve, us(d))
		allocs += float64(b.Mallocs - a.Mallocs)
		r.checkBody(q, rec.Code, rec.Body.Bytes())
	}
	viaLoopback := func(q string) {
		t0 := time.Now()
		resp, err := client.Post(ts.URL+"/query", "application/json", strings.NewReader(string(queryBody(q))))
		if !r.t.op(err) {
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		if r.t.op(err) {
			loop = append(loop, us(d))
			r.checkBody(q, resp.StatusCode, body)
		}
	}
	for i, q := range qs {
		if i%2 == 0 {
			viaRecorder(q)
			viaLoopback(q)
		} else {
			viaLoopback(q)
			viaRecorder(q)
		}
	}
	return serve, loop, allocs / float64(len(qs))
}

// checkBody compares an HTTP answer to the uncached evaluation.
func (r *tracedRun) checkBody(q string, code int, body []byte) {
	if code != http.StatusOK {
		r.t.op(fmt.Errorf("%q: HTTP %d", q, code))
		return
	}
	got, err := parseAnswers(body)
	if err == nil {
		var want answers
		if want, err = refQuery(r.ix, q); err == nil {
			if msg := diff(got, want, probTolerance); msg != "" {
				err = fmt.Errorf("%q: %s", q, msg)
			}
		}
	}
	r.t.op(err)
}

// overhead compares the handler's call sequence with and without spans on
// the same queries (cache bypassed, so both sides do the same work),
// alternating which side goes first to cancel warm-up and drift.
func (r *tracedRun) overhead(qs []string) float64 {
	scratch := newTracer()
	var plain, traced time.Duration
	for i, q := range qs[:min(len(qs), 100)] {
		body := queryBody(q)
		for _, withSpans := range []bool{i%2 == 0, i%2 != 0} {
			call := func(name string, f func()) {
				if withSpans {
					scratch.do(name, f)
				} else {
					f()
				}
			}
			t0 := time.Now()
			var req struct {
				Query string `json:"query"`
			}
			var pq *ucq.Query
			var err error
			call("server.decode", func() { err = json.Unmarshal(body, &req) })
			call("ucq.parse", func() { pq, err = ucq.Parse(req.Query) })
			if err != nil {
				r.t.op(err)
				return math.NaN()
			}
			call("core.validate", func() { err = r.ix.Translation().ValidateQuery(pq.UCQ) })
			call("ucq.fingerprint", func() { ucq.FingerprintQuery(pq) })
			call("mvindex.query", func() { _, err = r.ix.Query(pq, uncached) })
			if withSpans {
				traced += time.Since(t0)
			} else {
				plain += time.Since(t0)
			}
		}
	}
	return (traced.Seconds() - plain.Seconds()) / plain.Seconds()
}

// writeProbe holds the write path's per-layer measurements.
type writeProbe struct {
	apply, recompiled, appendSync        []float64
	firstApply, fullFallbacks            float64
	bytesPerMutation                     float64
	save, load, snapMB, replay, openLive float64
}

// writeProbe logs and applies the first batch and traceSteadyBatches
// steady batches (calling between after each, and mark after the first),
// with a snapshot after the first; then times snapshot load, WAL replay and
// server.OpenLive over the same directory, and checks that the recovered
// index answers like the live one.
func (r *tracedRun) writeProbe(s *stream, between func(writeRound), mark func()) (writeProbe, error) {
	var wp writeProbe
	dir, err := os.MkdirTemp(r.cfg.buildDir, "trace-wal-")
	if err != nil {
		return wp, err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "index.snap")
	log, err := wal.Open(dir, wal.Options{GroupCommit: 2 * time.Millisecond})
	if err != nil {
		return wp, err
	}
	defer log.Close()
	var touched []int
	var bytes0 int64
	var mutations int
	logApply := func(rd writeRound, steady bool) error {
		batch := toCoreBatch(rd.Batch)
		rec, err := core.EncodeMutations(batch)
		if err != nil {
			return err
		}
		var seq uint64
		as := r.tr.do("wal.append_sync", func() {
			if seq, err = log.Append(rec); err == nil {
				err = log.Sync()
			}
		})
		if err != nil {
			return err
		}
		var st mvindex.MaintStats
		ad := r.tr.do("mvindex.apply_mutations", func() { st, err = r.ix.ApplyMutations(batch) })
		if err != nil {
			return err
		}
		touched = append(touched, rd.Touched...)
		if !steady {
			wp.firstApply = ad.Seconds()
			// The first batch is the recovery base of the replay below.
			if err := r.snapshotSave(&wp, snap, seq); err != nil {
				return err
			}
			bytes0 = log.Stats().Bytes
			return nil
		}
		mutations += len(batch)
		wp.appendSync = append(wp.appendSync, ms(as))
		wp.apply = append(wp.apply, ms(ad))
		wp.recompiled = append(wp.recompiled, float64(st.Recompiled))
		if st.Full {
			wp.fullFallbacks++
		}
		return nil
	}
	if err := logApply(s.firstBatch(), false); err != nil {
		return wp, err
	}
	if mark != nil {
		mark()
	}
	for i := 0; i < traceSteadyBatches; i++ {
		rd := s.nextRound()
		if err := logApply(rd, true); err != nil {
			return wp, err
		}
		if between != nil {
			between(rd)
		}
	}
	wp.bytesPerMutation = float64(log.Stats().Bytes-bytes0) / float64(mutations)
	if err := log.Close(); err != nil {
		return wp, err
	}

	// Snapshot load alone, then the WAL tail alone, then the whole recovery.
	var seq uint64
	wp.load = r.tr.do("mvindex.snapshot_load", func() { _, seq, err = mvindex.LoadFileSeq(snap) }).Seconds()
	if err != nil {
		return wp, err
	}
	runtime.GC()
	frames := 0
	wp.replay = ms(r.tr.do("wal.replay", func() {
		err = wal.Replay(dir, seq, func(_ uint64, rec []byte) error {
			frames++
			_, derr := core.DecodeMutations(rec)
			return derr
		})
	}))
	if err == nil && frames != traceSteadyBatches {
		err = fmt.Errorf("WAL replay saw %d frames, want %d", frames, traceSteadyBatches)
	}
	if !r.t.op(err) {
		return wp, nil
	}
	var (
		rix  *mvindex.Index
		live *server.Live
	)
	cfg := server.LiveConfig{WALDir: dir, SnapshotPath: snap, GroupCommit: 2 * time.Millisecond}
	wp.openLive = r.tr.do("server.open_live", func() {
		rix, live, err = server.OpenLive(cfg, func() (*mvindex.Index, error) {
			var ix *mvindex.Index
			var berr error
			r.tr.do("server.build_callback", func() { ix, berr = buildIndex(r.cfg.authors) })
			return ix, berr
		})
	}).Seconds()
	if err != nil {
		return wp, err
	}
	for _, st := range touched {
		q := ucq.MustParse(qAdvisorOf(st))
		got, gerr := rix.Query(q, uncached)
		want, werr := r.ix.Query(q, uncached)
		if gerr == nil && werr == nil {
			if msg := diff(fromCore(got), fromCore(want), 0); msg != "" {
				gerr = fmt.Errorf("recovered index, student %d: %s", st, msg)
			}
		}
		r.t.op(gerr)
		r.t.op(werr)
	}
	// Close needs a server to snapshot through.
	server.NewWith(rix, server.Config{}).EnableLive(live)
	if err := live.Close(); err != nil {
		return wp, err
	}
	runtime.GC()
	return wp, nil
}

func (r *tracedRun) snapshotSave(wp *writeProbe, path string, seq uint64) error {
	var err error
	wp.save = r.tr.do("mvindex.snapshot_save", func() { err = r.ix.SaveFileSeq(path, seq) }).Seconds()
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	wp.snapMB = float64(fi.Size()) / (1 << 20)
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func rate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
