package obdd

import (
	"fmt"
	"reflect"

	"mvdb/internal/budget"
	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// Incremental recompilation. A ConOBDD compiled through a top-level
// separator is a chain of per-separator-value blocks; a BlockRecord keeps
// the per-value roots so a later compile of the same W over a mutated
// database can reuse every block whose Boolean function is untouched.
// Correctness rests on two facts:
//
//   - Reduced OBDDs over a fixed order are canonical, so importing a clean
//     block's sub-OBDD (with variables renamed into the new order) yields
//     exactly the OBDD a from-scratch compile would build for it, and the
//     final OR of blocks is the canonical OBDD of W regardless of which
//     blocks were reused.
//   - A mutation to a tuple carrying separator value v can only change the
//     function of block v: every grounding using the tuple binds the
//     separator to v. Tuples the separator cannot localize (deterministic,
//     negated or ground atoms) conservatively dirty every block.
//
// A disjunct pruned from a block because its probe relation has no tuple at
// that value is identically false there, so probe-set differences at clean
// values never change block functions — reuse needs no probe bookkeeping.

// BlockRecord describes the top-level separator expansion of one compiled
// UCQ: the query, the separator, the sorted value domain and the per-value
// block roots in the compiled manager (False for empty blocks). HasSep is
// false when the query had no whole-union separator; incremental
// maintenance then falls back to full recompilation.
type BlockRecord struct {
	U      ucq.UCQ
	HasSep bool
	Sep    ucq.Separator
	Values []engine.Value
	Roots  []NodeID
}

// ChangedTuple identifies a tuple whose presence changed (inserted or
// deleted) between the recorded compilation and the current database.
type ChangedTuple struct {
	Rel  string
	Vals []engine.Value
}

// DeltaStats reports how an incremental compile proceeded.
type DeltaStats struct {
	Blocks     int  // non-empty separator blocks in the new chain
	Reused     int  // blocks imported unchanged from the old manager
	Recompiled int  // dirty or new blocks compiled from scratch
	Full       bool // fell back to a full recompile
}

// CompileRecorded compiles like Compile but also returns a BlockRecord for
// later incremental recompilation. When the whole union has a (determinism-
// aware) separator it is expanded at the top level — above the R1
// union-group split the plain compiler prefers — which yields the same
// canonical OBDD (possibly via a different construction order) while making
// every block individually addressable.
func CompileRecorded(db *engine.Database, u ucq.UCQ, pi Perm, opts CompileOptions) (*Manager, NodeID, *BlockRecord, CompileStats, error) {
	if err := pi.Validate(db); err != nil {
		return nil, False, nil, CompileStats{}, err
	}
	m := NewManager(TupleOrder(db, pi))
	c, disarm := newArmedCompiler(m, db, opts)
	defer disarm()
	var f NodeID
	var rec *BlockRecord
	var ferr error
	err := budget.Catch(func() { f, rec, ferr = c.ucqRecorded(u) })
	if err == nil {
		err = ferr
	}
	if err != nil {
		return nil, False, nil, c.stats, err
	}
	return m, f, rec, c.stats, nil
}

// CompileDelta recompiles u over the mutated database, reusing every block
// of the previous compilation (old manager + record) whose function is
// untouched by the changed tuples. varMap translates the old manager's
// external variable ids into the new database's (identity for surviving
// base tuples; NV tuples are re-matched by head values); it must be
// injective and order-preserving on the variables it maps — ImportMapped
// verifies the latter edge by edge and the block is recompiled on any
// failure. Falls back to a full (recorded) compile when the record is
// missing, the query changed, or the separator moved.
func CompileDelta(db *engine.Database, u ucq.UCQ, pi Perm, opts CompileOptions,
	old *Manager, oldRec *BlockRecord, varMap func(int) (int, bool),
	changed []ChangedTuple) (*Manager, NodeID, *BlockRecord, DeltaStats, CompileStats, error) {
	if err := pi.Validate(db); err != nil {
		return nil, False, nil, DeltaStats{}, CompileStats{}, err
	}
	m := NewManager(TupleOrder(db, pi))
	c, disarm := newArmedCompiler(m, db, opts)
	defer disarm()
	var f NodeID
	var rec *BlockRecord
	var ds DeltaStats
	var ferr error
	err := budget.Catch(func() { f, rec, ds, ferr = c.deltaOrFull(u, old, oldRec, varMap, changed) })
	if err == nil {
		err = ferr
	}
	if err != nil {
		return nil, False, nil, ds, c.stats, err
	}
	return m, f, rec, ds, c.stats, nil
}

// newArmedCompiler builds a compiler over m and arms the manager's budget
// when the options ask for one; the returned disarm must be deferred.
func newArmedCompiler(m *Manager, db *engine.Database, opts CompileOptions) (*compiler, func()) {
	if opts.ApplyCacheSize > 0 {
		m.SetApplyCacheMax(opts.ApplyCacheSize)
	}
	c := &compiler{m: m, db: db, opts: opts}
	if opts.bounded() {
		m.SetBudget(opts.Ctx, opts.Budget)
		return c, func() { m.SetBudget(nil, budget.Budget{}) }
	}
	return c, func() {}
}

// ucqRecorded mirrors ucq()'s top level (simplify, R4 ground split) but
// tries the separator expansion on the whole open union first, capturing
// the per-value block roots.
func (c *compiler) ucqRecorded(u ucq.UCQ) (NodeID, *BlockRecord, error) {
	rec := &BlockRecord{U: u}
	ground, open := c.splitLive(u)
	if ground == nil && open == nil {
		return False, rec, nil
	}
	results := make([]NodeID, 0, len(ground)+1)
	for _, d := range ground {
		f, err := c.groundCQ(d)
		if err != nil {
			return False, nil, err
		}
		results = append(results, f)
	}
	if len(open) > 0 {
		openU := ucq.UCQ{Disjuncts: open}
		if sep, ok := openU.FindSeparatorSkip(c.detSkip()); ok {
			domain, subs, est := c.sepExpand(openU, sep)
			roots := make([]NodeID, len(subs))
			chain, err := c.blockChain(subs, est, roots)
			if err != nil {
				return False, nil, err
			}
			rec.HasSep, rec.Sep, rec.Values, rec.Roots = true, sep, domain, roots
			results = append(results, chain)
		} else {
			f, err := c.openUCQ(openU)
			if err != nil {
				return False, nil, err
			}
			results = append(results, f)
		}
	}
	return c.combine(results, false), rec, nil
}

// splitLive simplifies the disjuncts and splits them into ground and open,
// as ucq() does. Both slices nil means the union is identically false.
func (c *compiler) splitLive(u ucq.UCQ) (ground, open []ucq.CQ) {
	for _, d := range u.Disjuncts {
		sd, ok := simplifyCQ(d)
		if !ok {
			continue
		}
		if !sd.HasVars() {
			ground = append(ground, sd)
		} else {
			open = append(open, sd)
		}
	}
	return ground, open
}

// deltaOrFull is the body of CompileDelta: reuse clean blocks, recompile
// dirty ones, or fall back to ucqRecorded when reuse is impossible.
func (c *compiler) deltaOrFull(u ucq.UCQ, old *Manager, oldRec *BlockRecord,
	varMap func(int) (int, bool), changed []ChangedTuple) (NodeID, *BlockRecord, DeltaStats, error) {
	full := func() (NodeID, *BlockRecord, DeltaStats, error) {
		f, rec, err := c.ucqRecorded(u)
		return f, rec, DeltaStats{Full: true}, err
	}
	if old == nil || oldRec == nil || !oldRec.HasSep || !reflect.DeepEqual(oldRec.U, u) {
		return full()
	}
	ground, open := c.splitLive(u)
	if len(open) == 0 {
		return full() // nothing block-structured to reuse
	}
	openU := ucq.UCQ{Disjuncts: open}
	sep, ok := openU.FindSeparatorSkip(c.detSkip())
	if !ok || !reflect.DeepEqual(sep, oldRec.Sep) {
		return full()
	}

	var ds DeltaStats
	domain, subs, _ := c.sepExpand(openU, sep)
	dirty, dirtyAll := dirtyValues(openU, sep, c.detSkip(), changed)
	oldRoots := make(map[engine.Value]NodeID, len(oldRec.Values))
	for i, v := range oldRec.Values {
		oldRoots[v] = oldRec.Roots[i]
	}

	// First pass: import every clean block. A value is reusable when no
	// changed tuple dirties it and the old record has it; empty-to-nonempty
	// flips are impossible for clean values (they would require a presence
	// change at the value, which dirties it).
	roots := make([]NodeID, len(subs))
	reused := make([]bool, len(subs))
	for i, v := range domain {
		if len(subs[i].Disjuncts) == 0 {
			reused[i] = true // stays False on both sides
			continue
		}
		ds.Blocks++
		if dirtyAll || dirty[v] {
			continue
		}
		or, ok := oldRoots[v]
		if !ok {
			continue
		}
		img, err := c.m.ImportMapped(old, or, varMap)
		if err != nil {
			continue // unmapped or order-violating: recompile this block
		}
		roots[i], reused[i] = img, true
		ds.Reused++
	}

	// Second pass: compile the dirty blocks in the owner's manager and chain
	// everything in the usual descending order. A batch dirties a handful of
	// blocks, so a parallel fan-out (scratch managers, imports) costs more
	// than it saves here.
	for i := range subs {
		if reused[i] {
			continue
		}
		ds.Recompiled++
		if err := c.blockCheck(i); err != nil {
			return False, nil, ds, err
		}
		f, err := c.ucq(subs[i])
		if err != nil {
			return False, nil, ds, err
		}
		roots[i] = f
	}
	acc := False
	for i := len(subs) - 1; i >= 0; i-- {
		if roots[i] == False {
			continue
		}
		acc = c.or2(roots[i], acc)
	}

	results := make([]NodeID, 0, len(ground)+1)
	for _, d := range ground {
		f, err := c.groundCQ(d)
		if err != nil {
			return False, nil, ds, err
		}
		results = append(results, f)
	}
	results = append(results, acc)
	rec := &BlockRecord{U: u, HasSep: true, Sep: sep, Values: domain, Roots: roots}
	return c.combine(results, false), rec, ds, nil
}

// dirtyValues maps the changed tuples to the separator values whose blocks
// they can affect. A tuple grounding a separator-carrying atom binds the
// separator to the tuple's value at the relation's separator position, so
// only that block sees it; a tuple only reachable through skipped atoms
// (deterministic, negated, ground) cannot be localized and dirties all
// blocks (second return true).
func dirtyValues(openU ucq.UCQ, sep ucq.Separator, skip ucq.AtomSkip, changed []ChangedTuple) (map[engine.Value]bool, bool) {
	dirty := map[engine.Value]bool{}
	for _, ct := range changed {
		for di, d := range openU.Disjuncts {
			for _, a := range d.Atoms {
				if a.Rel != ct.Rel || !atomMayMatch(a, ct.Vals) {
					continue
				}
				pos, ok := sep.RelPos[a.Rel]
				if !skip(a) && ok && atomHasVarAt(a, sep.PerDisjunct[di], pos) {
					dirty[ct.Vals[pos]] = true
				} else {
					return nil, true
				}
			}
		}
	}
	return dirty, false
}

// atomMayMatch reports whether the tuple could ground the atom: matching
// arity and no contradicting constant argument.
func atomMayMatch(a ucq.Atom, vals []engine.Value) bool {
	if len(a.Args) != len(vals) {
		return false
	}
	for i, t := range a.Args {
		if t.IsConst && !t.Const.Equal(vals[i]) {
			return false
		}
	}
	return true
}

// ImportMapped copies the sub-OBDD rooted at f in src into m, renaming
// external variables through varMap (src id → destination id). Unlike
// Import the managers may have different orders; the mapping must be
// injective and preserve the relative order of the mapped variables. Order
// preservation is verified edge by edge and violations (or unmapped
// variables) return an error, so callers can fall back to recompiling.
// Canonicity makes the copy exact: the image is the reduced OBDD of the
// renamed function in m's order.
func (m *Manager) ImportMapped(src *Manager, f NodeID, varMap func(int) (int, bool)) (NodeID, error) {
	if f <= True {
		return f, nil
	}
	memo := getNodeMemo(len(src.nodes), true)
	defer putNodeMemo(memo)
	var rec func(NodeID) (NodeID, error)
	rec = func(x NodeID) (NodeID, error) {
		if x <= True {
			return x, nil
		}
		if r, ok := memo.get(x); ok {
			return r, nil
		}
		n := src.nodes[x]
		v := src.levelVar[n.level]
		nv, ok := varMap(v)
		if !ok {
			return False, fmt.Errorf("obdd: no mapping for variable %d", v)
		}
		nl, ok := m.varLevel[nv]
		if !ok {
			return False, fmt.Errorf("obdd: mapped variable %d not in destination order", nv)
		}
		lo, err := rec(n.lo)
		if err != nil {
			return False, err
		}
		hi, err := rec(n.hi)
		if err != nil {
			return False, err
		}
		if (!m.IsTerminal(lo) && m.nodes[lo].level <= nl) ||
			(!m.IsTerminal(hi) && m.nodes[hi].level <= nl) {
			return False, fmt.Errorf("obdd: variable mapping is not order-preserving at variable %d", v)
		}
		r := m.MkNode(nl, lo, hi)
		memo.put(x, r)
		return r, nil
	}
	return rec(f)
}
