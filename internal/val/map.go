package val

// Map is a hash map keyed by Value, used by key-based operators (join
// builds, reduceByKey groups, distinct sets, the delta solution set). The
// zero Map is ready to use.
//
// Layout: entries holds every key in insertion order, densely, each with
// its cached hash; index is an open-addressing table of 1-based positions
// into entries (0 = empty slot), probed linearly and kept at most half
// full. Growing the table rehashes from the cached hashes without touching
// a key, and a lookup compares hashes before calling Equal. Neither a new
// key nor an update allocates once both slices have reached their size,
// and Reset keeps both.
type Map[T any] struct {
	entries []entry[T]
	index   []int32
	shift   uint8 // 64 - log2(len(index)): slot = fibonacci hash >> shift
}

type entry[T any] struct {
	hash uint64
	key  Value
	val  T
}

// minIndex is the smallest index table a non-empty Map allocates.
const minIndex = 8

// NewMap returns an empty Map with capacity hint n: n keys fit without
// growing either slice.
func NewMap[T any](n int) *Map[T] {
	m := &Map[T]{}
	if n > 0 {
		m.entries = make([]entry[T], 0, n)
		m.resize(2 * n)
	}
	return m
}

// slot maps a hash to its home slot. Fibonacci hashing takes the product's
// top bits, so keys whose hashes differ only in high bits still spread.
func (m *Map[T]) slot(h uint64) uint64 {
	return (h * 0x9E3779B97F4A7C15) >> m.shift
}

// find returns the entries position of key (-1 if absent) and the index
// slot it occupies or would be inserted at.
func (m *Map[T]) find(key Value, h uint64) (pos int, slot uint64) {
	mask := uint64(len(m.index) - 1)
	for s := m.slot(h); ; s = (s + 1) & mask {
		j := m.index[s]
		if j == 0 {
			return -1, s
		}
		if e := &m.entries[j-1]; e.hash == h && e.key.Equal(key) {
			return int(j - 1), s
		}
	}
}

// resize rebuilds the index with room for at least n slots (a power of
// two), re-slotting every entry from its cached hash.
func (m *Map[T]) resize(n int) {
	size, shift := minIndex, uint8(61)
	for size < n {
		size <<= 1
		shift--
	}
	if cap(m.index) >= size {
		m.index = m.index[:size]
		clear(m.index)
	} else {
		m.index = make([]int32, size)
	}
	m.shift = shift
	mask := uint64(size - 1)
	for i := range m.entries {
		s := m.slot(m.entries[i].hash)
		for m.index[s] != 0 {
			s = (s + 1) & mask
		}
		m.index[s] = int32(i + 1)
	}
}

// Get returns the value stored under key, and whether it was present.
func (m *Map[T]) Get(key Value) (T, bool) {
	if len(m.entries) > 0 {
		if pos, _ := m.find(key, key.Hash()); pos >= 0 {
			return m.entries[pos].val, true
		}
	}
	var zero T
	return zero, false
}

// Ref returns a pointer to the value stored under key, inserting the zero
// value first when key is absent, and reports whether key was present. It
// is the map's one insert-or-modify call:
//
//	p, present := m.Ref(k)
//	if !present { *p = v } else { *p = merge(*p, v) }
//
// The pointer stays valid until the next insertion of an absent key (by
// Ref or Put) or Reset; modifying present keys keeps it valid.
func (m *Map[T]) Ref(key Value) (*T, bool) {
	h := key.Hash()
	if len(m.index) == 0 {
		m.resize(minIndex)
	}
	pos, s := m.find(key, h)
	if pos >= 0 {
		return &m.entries[pos].val, true
	}
	m.entries = append(m.entries, entry[T]{hash: h, key: key})
	if 2*len(m.entries) > len(m.index) {
		m.resize(2 * len(m.index))
	} else {
		m.index[s] = int32(len(m.entries))
	}
	return &m.entries[len(m.entries)-1].val, false
}

// Put stores v under key, replacing any previous value.
func (m *Map[T]) Put(key Value, v T) {
	p, _ := m.Ref(key)
	*p = v
}

// Len returns the number of keys in the map.
func (m *Map[T]) Len() int { return len(m.entries) }

// Range calls f for every key/value pair until f returns false. Keys are
// visited in the order they were first inserted (since the last Reset), so
// iteration is deterministic for a deterministic insertion sequence. f
// must not insert into m.
func (m *Map[T]) Range(f func(key Value, v T) bool) {
	for i := range m.entries {
		if !f(m.entries[i].key, m.entries[i].val) {
			return
		}
	}
}

// Reset removes all entries but keeps both slices for reuse, so refilling
// up to the previous size allocates nothing.
func (m *Map[T]) Reset() {
	clear(m.entries) // release key and value references
	m.entries = m.entries[:0]
	clear(m.index)
}
