package analysis

import "math/bits"

// countTable is the multiset behind every count histogram of the fold: the
// value histograms' bins, each Table 3 row's values and a timer's spilled
// timeout values. Entries sit in one slice in first-seen order; an
// open-addressed index over that slice finds a key's entry. The index
// holds entry positions plus one (zero marks an empty slot), is a power of
// two long, and is probed linearly from a Fibonacci hash of the key: the
// key times 2^64/φ, top bits. Entries are allocated to exactly ¾ of the
// index length, so the load never passes ¾, and a full table grows by
// doubling the index, reallocating the entries to ¾ of the new length and
// re-indexing them in insertion order.
//
// Every walk — a drain into another table, a sum, a median gather — goes
// over the entries in insertion order, never over the index in slot
// order. Slot order is hash order: fed into another table with the same
// hash, it puts every key's home in the same narrow run of slots until
// that table grows, and linear probing then walks the whole run on every
// insert. Insertion order spreads the homes as evenly as the hash does.
//
// The zero value is an empty table.
type countTable struct {
	entries []countEntry
	index   []int32
	// shift is 64 minus the index length's log2: a key's home slot is the
	// top bits of its hash.
	shift uint8
}

// countEntry is one distinct key of a countTable and its count.
type countEntry struct {
	key int64
	n   int
}

// minCountIndex is the index length of a table's first allocation: room
// for six keys.
const minCountIndex = 8

// home returns key's first probe slot.
func (t *countTable) home(key int64) uint32 {
	return uint32(uint64(key) * 0x9E3779B97F4A7C15 >> t.shift)
}

// add counts n more of key.
//
//lint:allocfree per-record hot path through the value and origin run flushes; growth is the out-of-line grow, amortized over the doubling
func (t *countTable) add(key int64, n int) {
	if len(t.index) != 0 {
		mask := uint32(len(t.index) - 1)
		for i := t.home(key); ; i = (i + 1) & mask {
			e := t.index[i]
			if e == 0 {
				if len(t.entries) == cap(t.entries) {
					break
				}
				t.index[i] = int32(len(t.entries)) + 1
				t.entries = append(t.entries, countEntry{key: key, n: n})
				return
			}
			if p := &t.entries[e-1]; p.key == key {
				p.n += n
				return
			}
		}
	}
	t.grow()
	t.entries = append(t.entries, countEntry{key: key, n: n})
	t.place(len(t.entries) - 1)
}

// grow doubles the index (or makes the first one), reallocates the
// entries to exactly ¾ of its length and re-indexes them in insertion
// order. Exact capacity, not append's, keeps a large table's entries at
// most a third over what the load allows.
//
//go:noinline
func (t *countTable) grow() {
	size := max(2*len(t.index), minCountIndex)
	entries := make([]countEntry, len(t.entries), size/4*3)
	copy(entries, t.entries)
	t.entries = entries
	t.index = make([]int32, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for i := range t.entries {
		t.place(i)
	}
}

// place indexes entry i, whose key the index does not hold yet.
func (t *countTable) place(i int) {
	mask := uint32(len(t.index) - 1)
	s := t.home(t.entries[i].key)
	for t.index[s] != 0 {
		s = (s + 1) & mask
	}
	t.index[s] = int32(i) + 1
}

// lookup returns key's count and whether the table holds it. A nil table
// holds nothing.
func (t *countTable) lookup(key int64) (int, bool) {
	if t == nil || len(t.index) == 0 {
		return 0, false
	}
	mask := uint32(len(t.index) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return 0, false
		}
		if p := &t.entries[e-1]; p.key == key {
			return p.n, true
		}
	}
}

// len returns the number of distinct keys; a nil table has none.
func (t *countTable) len() int {
	if t == nil {
		return 0
	}
	return len(t.entries)
}

// reset empties the table and keeps its allocations, so refilling it to
// the same size allocates nothing.
func (t *countTable) reset() {
	t.entries = t.entries[:0]
	clear(t.index)
}

// addAll adds every count of o into t, walking o's entries in insertion
// order; o is not written.
func (t *countTable) addAll(o *countTable) {
	for _, e := range o.entries {
		t.add(e.key, e.n)
	}
}

// sum calls f once for every key of t or o with its count summed over
// both, t's keys first, each table's in insertion order. o may be nil.
// Neither table is written.
func (t *countTable) sum(o *countTable, f func(key int64, n int)) {
	for _, e := range t.entries {
		c, _ := o.lookup(e.key)
		f(e.key, e.n+c)
	}
	if o == nil {
		return
	}
	for _, e := range o.entries {
		if _, ok := t.lookup(e.key); !ok {
			f(e.key, e.n)
		}
	}
}
