package sem

import "slices"

// internTable interns fixed-width keys of uint64 words into dense
// node IDs 0, 1, 2, ... in insertion order. Keys live back to back in
// one flattened arena. The open-addressing slot array (linear probing,
// load at most one half) holds, per occupied slot, ID+1 in the low 32
// bits and the key's 32-bit hash in the high ones; 0 marks an empty
// slot. The hash picks the home slot, so growing the array never
// rereads a key, and a probe past a different key rarely touches the
// arena.
//
// Each walk owns its tables for the length of one call: a key is a
// node header (remaining-axis identity and level, see nodeHeader)
// followed by the live mask(s), so the returned ID doubles as the
// memo slot of the subtree below that node. A key is copied into the
// arena only when it is new; a hit costs one hash and a word-by-word
// compare and allocates nothing.
type internTable struct {
	width int      // words per key
	arena []uint64 // key of node id at arena[id*width : (id+1)*width]
	slots []uint64 // hash<<32 | ID+1 per slot; 0 = empty
	met   []metMark
}

// metMark records the last expansion that met a key as a child (by
// serial; 0 = none yet) and the key's group index in it.
type metMark struct {
	serial uint32
	group  int32
}

// newInternTable returns an empty table sized for 512 keys.
func newInternTable(width int) *internTable {
	return &internTable{
		width: width,
		arena: make([]uint64, 0, 512*width),
		slots: make([]uint64, 1024),
		met:   make([]metMark, 0, 512),
	}
}

// key returns node id's interned key. The slice stays valid after the
// arena grows: stored keys are never written again.
func (t *internTable) key(id int32) []uint64 {
	return t.arena[int(id)*t.width : (int(id)+1)*t.width]
}

// len returns the number of interned keys.
func (t *internTable) len() int { return len(t.met) }

// intern returns key's node ID, copying key into the arena and
// assigning the next ID when it is new (fresh reports which).
//
//barbican:noalloc
func (t *internTable) intern(key []uint64) (id int32, fresh bool) {
	h := hashWords(key)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		s := t.slots[i]
		if s>>32 != h {
			continue
		}
		id = int32(uint32(s)) - 1
		if wordsEqual(t.key(id), key) {
			return id, false
		}
	}
	return t.insert(key, h, i), true //barbican:allow alloc -- new keys only: the arena and slots grow by doubling
}

// insert adds a new key with hash h at the empty slot i and returns
// its ID.
func (t *internTable) insert(key []uint64, h, i uint64) int32 {
	id := int32(t.len())
	t.arena = append(reserve(t.arena, len(key)), key...)
	t.met = append(reserve(t.met, 1), metMark{})
	t.slots[i] = h<<32 | uint64(id+1)
	if 2*t.len() > len(t.slots) {
		t.grow()
	}
	return id
}

// meet interns a child key met by expansion serial (serials start at
// 1) and returns its ID and its group in that expansion. A child the
// expansion has not met before is given group next; one met through
// an earlier segment keeps the group it was given then.
//
//barbican:noalloc
func (t *internTable) meet(key []uint64, serial uint32, next int32) (id, group int32) {
	id, _ = t.intern(key)
	m := &t.met[id]
	if m.serial != serial {
		m.serial, m.group = serial, next
	}
	return id, m.group
}

// grow doubles the slot array and moves every slot to its home in
// the new one.
func (t *internTable) grow() {
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := s >> 32 & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// reserve returns s with room for n more elements, at least doubling
// its capacity when it must grow. A walk's per-call slices reach
// thousands of entries, past the size where plain append starts
// growing by a quarter at a time: with plain append for the arena,
// met and nodes, BenchmarkSemCorpus allocates 13.7 MB/op instead of
// 10.8 MB/op (4,128 instead of 4,002 allocations), at the same speed.
func reserve[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// hashWords mixes a key's words into a 32-bit hash (a
// multiply-xorshift per word, then the high half of the state).
func hashWords(key []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range key {
		h ^= x
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h * 0x94d049bb133111eb >> 32
}

func wordsEqual(a, b []uint64) bool {
	for i, x := range b {
		if a[i] != x {
			return false
		}
	}
	return true
}

// nodeHeader is a key's first word: the number of axes the class walks
// and the node's level, which together name the axes still to expand
// below it. Subtrees of different classes with the same header and
// masks are identical, so they share one ID.
func nodeHeader(axesLen, level int) uint64 {
	return uint64(axesLen)<<8 | uint64(level)
}
