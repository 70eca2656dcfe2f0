package val

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMapBasic(t *testing.T) {
	m := NewMap[int](4)
	if _, ok := m.Get(Str("a")); ok {
		t.Error("empty map Get returned present")
	}
	m.Put(Str("a"), 1)
	m.Put(Str("b"), 2)
	m.Put(Str("a"), 3) // replace
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
	if v, ok := m.Get(Str("a")); !ok || v != 3 {
		t.Errorf("Get(a) = %d,%t", v, ok)
	}
	if v, ok := m.Get(Str("b")); !ok || v != 2 {
		t.Errorf("Get(b) = %d,%t", v, ok)
	}
}

func TestMapZeroValueUsable(t *testing.T) {
	var m Map[string]
	if _, ok := m.Get(Int(1)); ok {
		t.Error("zero map Get returned present")
	}
	m.Put(Int(1), "x")
	if v, ok := m.Get(Int(1)); !ok || v != "x" {
		t.Error("zero map Put/Get broken")
	}
}

func TestMapRef(t *testing.T) {
	var m Map[int64]
	p, present := m.Ref(Str("k"))
	if present || *p != 0 {
		t.Fatalf("Ref on absent key = %d,%t, want zero value, absent", *p, present)
	}
	*p = 5
	p, present = m.Ref(Str("k"))
	if !present || *p != 5 {
		t.Fatalf("Ref on present key = %d,%t", *p, present)
	}
	*p += 7
	if v, _ := m.Get(Str("k")); v != 12 {
		t.Errorf("value = %d, want 12", v)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestMapRangeInsertionOrder(t *testing.T) {
	var m Map[int]
	keys := []Value{Str("z"), Int(3), Tuple(Int(1), Str("a")), Int(-8), Str("a")}
	for i, k := range keys {
		m.Put(k, i)
	}
	m.Put(Int(3), 99) // updating keeps the original position
	var got []Value
	m.Range(func(k Value, _ int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("Range visited %d keys, want %d", len(got), len(keys))
	}
	for i := range keys {
		if !got[i].Equal(keys[i]) {
			t.Fatalf("Range order %v, want %v", got, keys)
		}
	}
}

func TestMapRange(t *testing.T) {
	var m Map[int]
	for i := 0; i < 10; i++ {
		m.Put(Int(int64(i)), i*i)
	}
	sum := 0
	m.Range(func(k Value, v int) bool {
		sum += v
		return true
	})
	want := 0
	for i := 0; i < 10; i++ {
		want += i * i
	}
	if sum != want {
		t.Errorf("sum over Range = %d, want %d", sum, want)
	}
	// Early stop.
	count := 0
	m.Range(func(Value, int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early-stop Range visited %d", count)
	}
}

func TestMapReset(t *testing.T) {
	var m Map[int]
	m.Put(Int(1), 1)
	m.Reset()
	if m.Len() != 0 {
		t.Errorf("Len after Reset = %d", m.Len())
	}
	if _, ok := m.Get(Int(1)); ok {
		t.Error("Get after Reset returned present")
	}
	m.Put(Int(2), 2)
	if v, ok := m.Get(Int(2)); !ok || v != 2 {
		t.Error("map unusable after Reset")
	}
}

func TestMapTupleKeysAndCollisions(t *testing.T) {
	var m Map[int]
	// Many structurally distinct tuple keys.
	for i := 0; i < 200; i++ {
		m.Put(Tuple(Int(int64(i%10)), Int(int64(i/10))), i)
	}
	if m.Len() != 200 {
		t.Fatalf("Len = %d, want 200", m.Len())
	}
	for i := 0; i < 200; i++ {
		v, ok := m.Get(Tuple(Int(int64(i%10)), Int(int64(i/10))))
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d,%t", i, v, ok)
		}
	}
}

func TestQuickMapMatchesGoMap(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		var m Map[int64]
		ref := make(map[int64]int64)
		for i := 0; i < 100; i++ {
			k := r.Int63n(30)
			v := r.Int63()
			m.Put(Int(k), v)
			ref[k] = v
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := m.Get(Int(k))
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMapRefAllocs pins the keyed-state hot path: merging into a present
// key, and refilling a Reset map up to its previous size, allocate nothing.
func TestMapRefAllocs(t *testing.T) {
	keys := make([]Value, 64)
	for i := range keys {
		keys[i] = Str(fmt.Sprintf("page%d", i))
	}
	m := NewMap[int64](0)
	for _, k := range keys {
		m.Put(k, 0)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		p, _ := m.Ref(keys[i%len(keys)])
		*p++
		i++
	}); n != 0 {
		t.Errorf("Ref on a present key: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		m.Reset()
		for _, k := range keys[:len(keys)/2] {
			p, _ := m.Ref(k)
			*p++
		}
	}); n != 0 {
		t.Errorf("Ref refilling a Reset map: %v allocs, want 0", n)
	}
}

// FuzzMapDifferential runs random Put/Ref/Get/Reset sequences against a Go
// map keyed by Value.String(). The first byte picks a capacity hint of 0-2
// so small tables go through probe chains and every rehash; each following
// byte pair is one operation on one of 256 int, string or nested-tuple
// keys. After the sequence Range must visit each live key once, in
// insertion order.
func FuzzMapDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 2, 2, 2, 0, 5, 3, 0, 1, 7})
	f.Add([]byte{2, 0, 0, 0, 3, 0, 6, 1, 0, 1, 3, 2, 6})
	seq := []byte{1}
	for i := 0; i < 200; i++ {
		seq = append(seq, byte(i%3), byte(i*7))
	}
	f.Add(seq)
	key := func(b byte) Value {
		id := int64(b / 3)
		switch b % 3 {
		case 0:
			return Int(id)
		case 1:
			return Str(fmt.Sprint("k", id))
		default:
			return Tuple(Int(id%4), Tuple(Str(fmt.Sprint(id)), Bool(id%2 == 0)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := NewMap[int64](int(data[0] % 3))
		ref := make(map[string]int64)
		var order []Value
		for i := 1; i+1 < len(data); i += 2 {
			k, v := key(data[i+1]), int64(i)
			ks := k.String()
			want, wantOK := ref[ks]
			switch data[i] % 4 {
			case 0:
				m.Put(k, v)
				if !wantOK {
					order = append(order, k)
				}
				ref[ks] = v
			case 1:
				p, ok := m.Ref(k)
				if ok != wantOK || *p != want {
					t.Fatalf("op %d: Ref(%v) = %d,%t, want %d,%t", i, k, *p, ok, want, wantOK)
				}
				if !ok {
					order = append(order, k)
				}
				*p += v
				ref[ks] = want + v
			case 2:
				if got, ok := m.Get(k); ok != wantOK || got != want {
					t.Fatalf("op %d: Get(%v) = %d,%t, want %d,%t", i, k, got, ok, want, wantOK)
				}
			case 3:
				m.Reset()
				clear(ref)
				order = order[:0]
			}
			if m.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, want %d", i, m.Len(), len(ref))
			}
		}
		n := 0
		m.Range(func(k Value, got int64) bool {
			if n >= len(order) || !k.Equal(order[n]) {
				t.Fatalf("Range visit %d is %v, want insertion order %v", n, k, order)
			}
			if want := ref[k.String()]; got != want {
				t.Fatalf("Range(%v) = %d, want %d", k, got, want)
			}
			n++
			return true
		})
		if n != len(order) {
			t.Fatalf("Range visited %d keys, want %d", n, len(order))
		}
	})
}
