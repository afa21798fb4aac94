package farm

// tenantIndex is a shard's tenant id -> entry index table: open addressing
// with linear probing over 16-byte {id, idx} slots and SplitMix-style
// multiply hashing, the probe and growth rules of the accumulator's value
// index. A probe reads one cache line, and the table holds no pointers for
// the GC to trace. Tenants are never removed (a dropped tenant keeps its
// tombstone entry, and Restore resets the whole table), so there are no
// deletion markers: a slot whose idx is zero is empty.
type tenantIndex struct {
	slots []indexSlot
	mask  uint64
	live  int
}

type indexSlot struct {
	id  TenantID
	idx int32 // entry index + 1; 0 marks an empty slot
}

// hashTenant spreads tenant ids over the table. It must differ from the
// shard router's hash (rng.Mix64): every id in a shard shares Mix64's low
// bits, which would pile a shard's tenants into a fraction of its table.
func hashTenant(id TenantID) uint64 {
	h := uint64(id)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// init sizes an empty table for capacity ids at most half full.
func (ix *tenantIndex) init(capacity int) {
	size := 16
	for size < 2*capacity {
		size <<= 1
	}
	ix.slots = make([]indexSlot, size)
	ix.mask = uint64(size - 1)
	ix.live = 0
}

// reset empties the table, keeping its storage.
func (ix *tenantIndex) reset() {
	clear(ix.slots)
	ix.live = 0
}

// lookup returns id's entry index.
func (ix *tenantIndex) lookup(id TenantID) (int32, bool) {
	for h := hashTenant(id) & ix.mask; ; h = (h + 1) & ix.mask {
		s := &ix.slots[h]
		if s.idx == 0 {
			return 0, false
		}
		if s.id == id {
			return s.idx - 1, true
		}
	}
}

// insert adds id -> idx; id must not be present.
func (ix *tenantIndex) insert(id TenantID, idx int32) {
	if ix.live >= len(ix.slots)*3/4 {
		ix.grow()
	}
	ix.place(id, idx+1)
	ix.live++
}

// place stores (id, biased idx) in the first empty slot on id's probe path.
func (ix *tenantIndex) place(id TenantID, biased int32) {
	h := hashTenant(id) & ix.mask
	for ix.slots[h].idx != 0 {
		h = (h + 1) & ix.mask
	}
	ix.slots[h] = indexSlot{id, biased}
}

func (ix *tenantIndex) grow() {
	old := ix.slots
	ix.init(len(old)) // doubles: init sizes to 2*capacity
	for _, s := range old {
		if s.idx != 0 {
			ix.place(s.id, s.idx)
			ix.live++
		}
	}
}
