package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/engine"
	"mvdb/internal/mvindex"
	"mvdb/internal/ucq"
)

// Answer checks: HTTP answers are compared to uncached Index.Query results
// of a reference index the benchmark builds itself from the same generator
// configuration mvdbd uses.

const probTolerance = 1e-9

// answers maps a compact JSON head tuple to its probability.
type answers map[string]float64

// parseAnswers decodes a /query response body.
func parseAnswers(body []byte) (answers, error) {
	var resp struct {
		Answers []struct {
			Head json.RawMessage `json:"head"`
			Prob float64         `json:"prob"`
		} `json:"answers"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding /query answer: %w", err)
	}
	out := make(answers, len(resp.Answers))
	for _, a := range resp.Answers {
		var b bytes.Buffer
		if err := json.Compact(&b, a.Head); err != nil {
			return nil, err
		}
		out[b.String()] = a.Prob
	}
	return out, nil
}

// headKey renders a head tuple the way the server's JSON does.
func headKey(h []engine.Value) string {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, v := range h {
		if i > 0 {
			b.WriteByte(',')
		}
		if v.IsStr {
			s, _ := json.Marshal(v.Str) // a string always encodes
			b.Write(s)
		} else {
			b.WriteString(strconv.FormatInt(v.Int, 10))
		}
	}
	b.WriteByte(']')
	return b.String()
}

func fromCore(as []core.Answer) answers {
	out := make(answers, len(as))
	for _, a := range as {
		out[headKey(a.Head)] = a.Prob
	}
	return out
}

// diff describes the first disagreement between two answer sets beyond tol,
// or returns "" when they agree.
func diff(got, want answers, tol float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d answers, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("missing answer %s", k)
		}
		if math.Abs(g-w) > tol || math.IsNaN(g) {
			return fmt.Sprintf("answer %s: prob %.17g, want %.17g", k, g, w)
		}
	}
	return ""
}

// refQuery evaluates q on the reference index with the cache bypassed.
func refQuery(ix *mvindex.Index, q string) (answers, error) {
	pq, err := ucq.Parse(q)
	if err != nil {
		return nil, err
	}
	as, err := ix.Query(pq, mvindex.IntersectOptions{CacheConscious: true, DisableCache: true})
	if err != nil {
		return nil, err
	}
	return fromCore(as), nil
}

// buildIndex runs mvdbd's build: generate, translate, compile.
func buildIndex(authors int) (*mvindex.Index, error) {
	d, err := dblp.Generate(dblp.Config{NumAuthors: authors, Seed: 1})
	if err != nil {
		return nil, err
	}
	m, err := d.MVDB()
	if err != nil {
		return nil, err
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		return nil, err
	}
	return mvindex.Build(tr)
}

// referenceIndex builds the reference index once per source tree and
// reloads it from the build directory on later runs; the file name carries
// the tree hash, so a changed program is never checked against a stale
// reference.
func referenceIndex(buildDir, treeHash string, authors int) (*mvindex.Index, error) {
	path := filepath.Join(buildDir, fmt.Sprintf("ref-%s-%d.mvx", treeHash[:16], authors))
	if ix, err := mvindex.LoadFile(path); err == nil {
		return ix, nil
	}
	ix, err := buildIndex(authors)
	if err != nil {
		return nil, err
	}
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := ix.SaveFile(tmp); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return ix, nil
}

// toCoreBatch converts wire mutations to the library's form.
func toCoreBatch(batch []mutation) []core.Mutation {
	out := make([]core.Mutation, len(batch))
	for i, m := range batch {
		vals := make([]engine.Value, len(m.Vals))
		for j, v := range m.Vals {
			vals[j] = engine.Int(v)
		}
		op := map[string]core.MutationOp{"insert": core.MutInsert, "delete": core.MutDelete, "reweight": core.MutReweight}[m.Op]
		out[i] = core.Mutation{Op: op, Rel: m.Rel, Vals: vals, Weight: m.Weight}
	}
	return out
}
