package mvindex

import (
	"errors"
	"fmt"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/obdd"
)

// Incremental maintenance. A mutation batch against the source MVDB is
// turned into a new index without recompiling untouched parts:
//
//   - A batch of pure reweights leaves the set of possible tuples — and
//     therefore every OBDD — untouched; only the weight-dependent
//     augmentation is recomputed (linear in the index size).
//   - A structural batch (inserts/deletes) repairs the Definition 5
//     translation in place (core.ApplyDelta: only view heads reachable from
//     the changed tuples are re-evaluated) and recompiles W incrementally:
//     the block record of the previous compilation localizes the change to
//     the separator-value blocks the changed tuples can affect, and every
//     clean block is imported (renamed) from the old manager instead of
//     recompiled. Batches that could change W's shape fall back to a full
//     re-translation of a mutated clone.
//
// ApplyMutations mutates the index and requires exclusive access, like
// Reweight and Compact: no concurrent readers.

// MaintStats reports how one mutation batch was applied.
type MaintStats struct {
	Applied    int  // mutations in the batch
	WeightOnly bool // reweight-only fast path (no recompilation at all)
	Full       bool // structural path fell back to a full recompile
	Blocks     int  // non-empty separator blocks in the new chain
	Reused     int  // blocks imported unchanged from the old manager
	Recompiled int  // blocks compiled from scratch
	Duration   time.Duration
}

// Source returns the live MVDB the index maintains. It is replaced on every
// structural batch, so callers must re-fetch it rather than cache it. Nil for
// indexes restored from snapshots without source data.
func (ix *Index) Source() *core.MVDB { return ix.tr.Source }

// ApplyMutations validates and applies one batch of base-table mutations to
// the source MVDB and brings the index up to date incrementally. Invalid
// batches are rejected up front with nothing changed. After validation the
// fast path mutates the source and translated databases in place (its
// preflight falls back cleanly to a clone-and-retranslate route when the
// batch could change W's shape), so an internal failure beyond that point —
// which validation makes unreachable for well-formed batches — surfaces as
// an error after which the index must be rebuilt. Requires exclusive access
// (no concurrent readers).
func (ix *Index) ApplyMutations(batch []core.Mutation) (MaintStats, error) {
	t0 := time.Now()
	st := MaintStats{Applied: len(batch)}
	src := ix.tr.Source
	if src == nil {
		return st, fmt.Errorf("mvindex: index has no source MVDB (restored from a v1 snapshot?); mutations need the view definitions")
	}
	if err := src.ValidateBatch(batch); err != nil {
		return st, err
	}

	if core.WeightOnly(batch) {
		// Reweights change no tuple's existence: the view materializations,
		// the NV relations and the OBDD of W are all untouched. Apply the
		// weights to the source and to the translated clone, then recompute
		// the augmentation.
		if err := src.Apply(batch); err != nil {
			return st, err
		}
		for _, mu := range batch {
			if _, err := ix.tr.DB.UpdateWeight(mu.Rel, mu.Vals, mu.Weight); err != nil {
				return st, fmt.Errorf("mvindex: reweighting translated clone: %w", err)
			}
		}
		ix.Reweight()
		st.WeightOnly = true
		st.Duration = time.Since(t0)
		return st, nil
	}

	// Structural path. With a block record available, the delta translator
	// patches the source and translated databases in place — work
	// proportional to the batch's blast radius — and the identity variable
	// map plus its changed-tuple list drive the incremental recompile. Its
	// read-only preflight falls back (ErrDeltaFallback, nothing mutated) to
	// the conventional route when the batch could change W's shape: mutate a
	// clone, run the full Definition 5 translation, diff the two translated
	// databases, and swap atomically.
	copts := obdd.CompileOptions{Parallelism: ix.tr.Parallelism}
	if ix.rec != nil {
		changed, derr := ix.tr.ApplyDelta(batch)
		if derr == nil {
			newTr := ix.tr
			var ds obdd.DeltaStats
			m, fW, rec, ds, _, err := obdd.CompileDelta(newTr.DB, newTr.W, newTr.WPerm(), copts,
				ix.m, ix.rec, identityVarMap(newTr.DB), changed)
			st.Full, st.Blocks, st.Reused, st.Recompiled = ds.Full, ds.Blocks, ds.Reused, ds.Recompiled
			if err != nil {
				return st, err
			}
			ix.commit(newTr, m, fW, rec)
			st.Duration = time.Since(t0)
			return st, nil
		}
		if !errors.Is(derr, core.ErrDeltaFallback) {
			// Post-preflight failures leave the databases partially mutated;
			// surface them — the index needs a rebuild from clean data.
			return st, derr
		}
	}

	work := &core.MVDB{DB: src.DB.Clone(), Views: src.Views}
	if err := work.Apply(batch); err != nil {
		return st, err
	}
	newTr, err := work.Translate(ix.tr.Opts())
	if err != nil {
		return st, err
	}
	newTr.Parallelism = ix.tr.Parallelism

	oldDB := ix.tr.DB
	pi := newTr.WPerm()
	var (
		m   *obdd.Manager
		fW  obdd.NodeID
		rec *obdd.BlockRecord
	)
	if ix.rec == nil {
		// First structural batch (or the record was invalidated by Compact):
		// compile in full but record the block structure so the next batch
		// is incremental.
		m, fW, rec, _, err = obdd.CompileRecorded(newTr.DB, newTr.W, pi, copts)
		st.Full = true
	} else {
		var ds obdd.DeltaStats
		m, fW, rec, ds, _, err = obdd.CompileDelta(newTr.DB, newTr.W, pi, copts,
			ix.m, ix.rec, varMapByKey(oldDB, newTr.DB), changedTuples(oldDB, newTr.DB))
		st.Full, st.Blocks, st.Reused, st.Recompiled = ds.Full, ds.Blocks, ds.Reused, ds.Recompiled
	}
	if err != nil {
		return st, err
	}

	ix.commit(newTr, m, fW, rec)
	st.Duration = time.Since(t0)
	return st, nil
}

// commit installs a maintained translation and its recompiled OBDD:
// everything here is in-memory pointer swaps and the linear augmentation
// rebuild; the cache epoch bump makes every answer computed against the old
// state stale.
func (ix *Index) commit(newTr *core.Translation, m *obdd.Manager, fW obdd.NodeID, rec *obdd.BlockRecord) {
	newTr.AttachOBDD(m, fW)
	ix.tr = newTr
	ix.m = m
	ix.root = m.Not(fW)
	ix.probs = newTr.DB.Probs()
	ix.rec = rec
	ix.rebuild()
	if ix.cache != nil {
		ix.cache.answers.Invalidate()
		ix.cache.lineage.Invalidate()
	}
}

// identityVarMap maps every variable still alive in the delta-translated
// database to itself. Valid only when the new database is a mutated clone of
// the old one, which never renumbers variables.
func identityVarMap(newDB *engine.Database) func(int) (int, bool) {
	return func(v int) (int, bool) {
		if _, err := newDB.VarRef(v); err != nil {
			return 0, false
		}
		return v, true
	}
}

// varMapByKey maps old translated-database variable ids to new ones by tuple
// identity (relation + full values). Surviving tuples keep their relative
// order across re-translation (both databases sort identically), so the map
// is order-preserving wherever it is defined.
func varMapByKey(oldDB, newDB *engine.Database) func(int) (int, bool) {
	return func(v int) (int, bool) {
		ref, err := oldDB.VarRef(v)
		if err != nil {
			return 0, false
		}
		t := oldDB.Relation(ref.Rel).Tuples[ref.Pos]
		nr := newDB.Relation(ref.Rel)
		if nr == nil {
			return 0, false
		}
		i := nr.Lookup(t.Vals)
		if i < 0 || nr.Tuples[i].Var == 0 {
			return 0, false
		}
		return nr.Tuples[i].Var, true
	}
}

// changedTuples lists the tuples present in exactly one of the two translated
// databases — the presence diff that drives block dirtying. NV relations
// participate like base relations: a view tuple that appears or disappears
// changes W's lineage exactly where its NV tuple does.
func changedTuples(oldDB, newDB *engine.Database) []obdd.ChangedTuple {
	var out []obdd.ChangedTuple
	for _, name := range oldDB.Relations() {
		ra, rb := oldDB.Relation(name), newDB.Relation(name)
		for _, t := range ra.Tuples {
			if rb == nil || rb.Lookup(t.Vals) < 0 {
				out = append(out, obdd.ChangedTuple{Rel: name, Vals: t.Vals})
			}
		}
	}
	for _, name := range newDB.Relations() {
		ra, rb := oldDB.Relation(name), newDB.Relation(name)
		for _, t := range rb.Tuples {
			if ra == nil || ra.Lookup(t.Vals) < 0 {
				out = append(out, obdd.ChangedTuple{Rel: name, Vals: t.Vals})
			}
		}
	}
	return out
}
