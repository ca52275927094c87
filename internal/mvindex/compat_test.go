package mvindex

import (
	"compress/gzip"
	"math"
	"os"
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/engine"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

// learnedOrderSnapshot is an mvindex-v3 snapshot written by an earlier
// version that could reorder the OBDD dynamically: the synthetic DBLP
// dataset (200 authors, seed 1) with view V1, its ¬W OBDD sifted within each
// chain block (1098 -> 1033 nodes), saved with its source MVDB at WAL
// sequence 7. It carries the old Reordered/Reorder fields, which this
// version no longer declares.
const learnedOrderSnapshot = "testdata/sifted-v3-dblp-v1-200.snap.gz"

func loadLearnedOrderSnapshot(t *testing.T) (*Index, uint64) {
	t.Helper()
	f, err := os.Open(learnedOrderSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	ix, seq, err := ReadSeq(zr)
	if err != nil {
		t.Fatal(err)
	}
	return ix, seq
}

// sameOrder reports whether two managers order their variables identically.
func sameOrder(a, b *obdd.Manager) bool {
	if a.NumVars() != b.NumVars() {
		return false
	}
	for l := 0; l < a.NumVars(); l++ {
		if a.VarAtLevel(l) != b.VarAtLevel(l) {
			return false
		}
	}
	return true
}

// compareAnswers checks every query on got against want to 1e-12.
func compareAnswers(t *testing.T, what string, got, want *Index, queries []*ucq.Query) {
	t.Helper()
	for _, q := range queries {
		ga, err := got.Query(q, IntersectOptions{CacheConscious: true})
		if err != nil {
			t.Fatal(err)
		}
		wa, err := want.Query(q, IntersectOptions{CacheConscious: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(ga) != len(wa) {
			t.Fatalf("%s: %s: %d answers, want %d", what, q, len(ga), len(wa))
		}
		wp := make(map[string]float64, len(wa))
		for _, a := range wa {
			wp[engine.TupleKey(a.Head)] = a.Prob
		}
		for _, a := range ga {
			p, ok := wp[engine.TupleKey(a.Head)]
			if !ok || math.Abs(a.Prob-p) > 1e-12 {
				t.Fatalf("%s: %s: answer %v = %v, want %v (present %v)", what, q, a.Head, a.Prob, p, ok)
			}
		}
	}
}

// TestLoadLearnedOrderV3Snapshot: a v3 snapshot of a sifted index still
// loads. It answers like a fresh build under Π, and its first structural
// batch recompiles under Π and equals a from-scratch rebuild.
func TestLoadLearnedOrderV3Snapshot(t *testing.T) {
	old, seq := loadLearnedOrderSnapshot(t)
	if seq != 7 {
		t.Fatalf("LastSeq = %d, want 7", seq)
	}
	if old.Source() == nil {
		t.Fatal("restored index lost its source MVDB")
	}

	d, err := dblp.Generate(dblp.Config{NumAuthors: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.MVDB(d.V1)
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := buildIndex(t, m)
	if sameOrder(old.Manager(), fresh.Manager()) {
		t.Fatal("fixture is not sifted: its order equals Π, so the test would be vacuous")
	}

	queries := []*ucq.Query{
		ucq.MustParse("Q(s, a) :- Advisor(s, a)"),
		ucq.MustParse("Q() :- Advisor(s, a)"),
	}
	for i := 0; i < 6; i++ {
		s := d.Students[i*len(d.Students)/6]
		queries = append(queries, dblp.QueryAdvisorOfStudent(s), dblp.QueryAffiliationOfAuthor(s))
	}
	compareAnswers(t, "restored vs fresh Π build", old, fresh, queries)

	// One insert and one delete on different students.
	s0, s1 := d.Students[0], d.Students[len(d.Students)/2]
	adv := old.Source().DB.Relation("Advisor")
	victim := adv.Tuples[adv.MatchingIndexes(0, engine.Int(s1))[0]].Vals
	batch := []core.Mutation{
		{Op: core.MutInsert, Rel: "Advisor", Vals: []engine.Value{engine.Int(s0), engine.Int(9999)}, Weight: 2},
		{Op: core.MutDelete, Rel: "Advisor", Vals: victim},
	}
	st, err := old.ApplyMutations(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Errorf("first structural batch after a restore did not recompile in full: %+v", st)
	}
	_, ref := buildIndex(t, old.Source())
	if !sameOrder(old.Manager(), ref.Manager()) {
		t.Error("after its first structural batch the index does not run under Π")
	}
	compareAnswers(t, "after first batch vs rebuild", old, ref, queries)
	gl, gs := old.LogProbNotW()
	wl, ws := ref.LogProbNotW()
	if gs != ws || math.Abs(gl-wl) > 1e-9 {
		t.Fatalf("P0(¬W) (%v,%d) vs rebuild (%v,%d)", gl, gs, wl, ws)
	}
}
