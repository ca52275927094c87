package obdd

// uniqueTable is the CUDD-style unique table: an open-addressing hash set
// over the manager's node store. Slots hold NodeIDs into Manager.nodes; the
// node fields themselves live only in the nodes slice, so the table is a flat
// []int32 that the probe loop walks with no pointer chasing and no
// per-insert allocation. Capacity is a power of two, probing is linear, and
// nodes are never deleted, so there are no tombstones; the table grows by
// doubling when the load factor reaches 3/4.
//
// Slot value 0 marks an empty slot: NodeID 0 is the False terminal, and
// terminals are never hash-consed (MkNode only inserts internal nodes, whose
// ids start at 2).
type uniqueTable struct {
	slots []NodeID
	n     int // occupied slots
}

const uniqueInitialSlots = 64

// Mixing constants (splitmix64 finalizer multipliers).
const (
	mixA = 0x9E3779B97F4A7C15
	mixB = 0xBF58476D1CE4E5B9
	mixC = 0x94D049BB133111EB
)

// hashNode mixes a node's three fields into a table-quality 64-bit hash.
func hashNode(level int32, lo, hi NodeID) uint64 {
	h := uint64(uint32(level))*mixA ^ uint64(uint32(lo))*mixB ^ uint64(uint32(hi))*mixC
	h ^= h >> 32
	h *= mixB
	h ^= h >> 29
	return h
}

func (t *uniqueTable) init() {
	t.slots = make([]NodeID, uniqueInitialSlots)
	t.n = 0
}

// Stats returns the occupancy and capacity of the unique table. The load
// factor n/cap stays below 3/4 by construction; /stats reports it so
// operators can see how much slack the probe loops have.
func (t *uniqueTable) stats() (n, cap int) { return t.n, len(t.slots) }

// lookup probes for (level, lo, hi) and returns its id, or 0 and the slot
// index where it must be inserted.
func (t *uniqueTable) lookup(nodes []node, level int32, lo, hi NodeID) (NodeID, uint64) {
	mask := uint64(len(t.slots) - 1)
	for i := hashNode(level, lo, hi) & mask; ; i = (i + 1) & mask {
		id := t.slots[i]
		if id == 0 {
			return 0, i
		}
		n := &nodes[id]
		if n.level == level && n.lo == lo && n.hi == hi {
			return id, i
		}
	}
}

// insert places id at the slot returned by a failed lookup and grows the
// table past the 3/4 load factor, rehashing every node (ids 2..len-1) into
// the doubled slot array.
func (t *uniqueTable) insert(nodes []node, id NodeID, slot uint64) {
	t.slots[slot] = id
	t.n++
	if t.n*4 < len(t.slots)*3 {
		return
	}
	t.slots = make([]NodeID, len(t.slots)*2)
	mask := uint64(len(t.slots) - 1)
	for nid := NodeID(2); int(nid) < len(nodes); nid++ {
		n := &nodes[nid]
		i := hashNode(n.level, n.lo, n.hi) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = nid
	}
}
