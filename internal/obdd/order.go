package obdd

import (
	"fmt"
	"sort"

	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// Perm assigns to each relation a permutation of its attribute positions —
// the π of Section 4.2. Relations absent from the map use the identity
// permutation.
type Perm map[string][]int

// IdentityPerm returns the identity permutation for every relation of the
// database.
func IdentityPerm(db *engine.Database) Perm {
	p := Perm{}
	for _, name := range db.Relations() {
		r := db.Relation(name)
		idx := make([]int, r.Arity())
		for i := range idx {
			idx[i] = i
		}
		p[name] = idx
	}
	return p
}

// SeparatorFirstPerm returns a permutation that places the separator's
// attribute position first in every relation it mentions and keeps the
// remaining attributes in schema order — the heuristic of Section 4.2
// ("every attribute holding a separator variable occurs first").
func SeparatorFirstPerm(db *engine.Database, sep ucq.Separator) Perm {
	p := IdentityPerm(db)
	for rel, pos := range sep.RelPos {
		r := db.Relation(rel)
		if r == nil {
			continue
		}
		perm := make([]int, 0, r.Arity())
		perm = append(perm, pos)
		for i := 0; i < r.Arity(); i++ {
			if i != pos {
				perm = append(perm, i)
			}
		}
		p[rel] = perm
	}
	return p
}

// Validate checks that the permutation is a bijection on each relation's
// attribute positions.
func (p Perm) Validate(db *engine.Database) error {
	for rel, perm := range p {
		r := db.Relation(rel)
		if r == nil {
			return fmt.Errorf("obdd: permutation for unknown relation %s", rel)
		}
		if len(perm) != r.Arity() {
			return fmt.Errorf("obdd: permutation for %s has length %d, arity is %d", rel, len(perm), r.Arity())
		}
		seen := make([]bool, r.Arity())
		for _, i := range perm {
			if i < 0 || i >= r.Arity() || seen[i] {
				return fmt.Errorf("obdd: permutation for %s is not a bijection: %v", rel, perm)
			}
			seen[i] = true
		}
	}
	return nil
}

// TupleOrder computes the variable order Π of Section 4.2: probabilistic
// tuples are ordered by the lexicographic comparison of their permuted value
// sequences (prefix-first, so a tuple whose permuted key is a prefix of
// another's comes earlier, mirroring the recursive grouping of the paper);
// ties across relations break by arity ("order the relation names from
// smaller to larger arities"), then by relation name.
func TupleOrder(db *engine.Database, pi Perm) []int {
	type entry struct {
		v   int
		off int // start of the permuted key in the shared backing array
		n   int // key length
		ar  int
		rel string
		pos int
	}
	// All keys live in one backing array instead of one small slice per
	// probabilistic tuple — TupleOrder runs once per compilation over every
	// tuple, and the per-tuple allocations dominated its profile.
	var keys []engine.Value
	var entries []entry
	for _, name := range db.Relations() {
		r := db.Relation(name)
		if r.Deterministic {
			continue
		}
		perm, ok := pi[name]
		if !ok {
			perm = make([]int, r.Arity())
			for i := range perm {
				perm[i] = i
			}
		}
		for ti, t := range r.Tuples {
			if t.Var == 0 {
				continue
			}
			off := len(keys)
			for _, c := range perm {
				keys = append(keys, t.Vals[c])
			}
			entries = append(entries, entry{v: t.Var, off: off, n: len(perm), ar: r.Arity(), rel: name, pos: ti})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		ka, kb := keys[a.off:a.off+a.n], keys[b.off:b.off+b.n]
		for k := 0; k < len(ka) && k < len(kb); k++ {
			if c := ka[k].Compare(kb[k]); c != 0 {
				return c < 0
			}
		}
		if len(ka) != len(kb) {
			return len(ka) < len(kb)
		}
		if a.ar != b.ar {
			return a.ar < b.ar
		}
		if a.rel != b.rel {
			return a.rel < b.rel
		}
		return a.pos < b.pos
	})
	out := make([]int, len(entries))
	for i, e := range entries {
		out[i] = e.v
	}
	return out
}
