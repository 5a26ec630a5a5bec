package binheap

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	h := New(4)
	if !h.Empty() || h.Len() != 0 {
		t.Fatal("new heap should be empty")
	}
	if _, _, err := h.Pop(); err != ErrEmpty {
		t.Fatalf("Pop on empty: err = %v, want ErrEmpty", err)
	}
}

func TestPushPopOrdering(t *testing.T) {
	h := New(10)
	keys := []float64{9, 1, 7, 3, 5, 2, 8, 4, 6, 0}
	for item, k := range keys {
		if err := h.Push(item, k); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	for want := 0.0; want < 10; want++ {
		item, key, err := h.Pop()
		if err != nil {
			t.Fatalf("Pop: %v", err)
		}
		if key != want {
			t.Fatalf("popped key %v, want %v", key, want)
		}
		if keys[item] != key {
			t.Fatalf("item/key mismatch: item %d has key %v, popped %v", item, keys[item], key)
		}
	}
}

func TestPushErrors(t *testing.T) {
	h := New(2)
	if err := h.Push(-1, 0); err == nil {
		t.Fatal("negative item should error")
	}
	if err := h.Push(2, 0); err == nil {
		t.Fatal("out-of-range item should error")
	}
	if err := h.Push(0, 1); err != nil {
		t.Fatalf("Push: %v", err)
	}
	if err := h.Push(0, 2); err != ErrDuplicate {
		t.Fatalf("duplicate push: err = %v, want ErrDuplicate", err)
	}
}

func TestDecreaseKey(t *testing.T) {
	h := New(3)
	for i, k := range []float64{10, 20, 30} {
		if err := h.Push(i, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.DecreaseKey(2, 5); err != nil {
		t.Fatalf("DecreaseKey: %v", err)
	}
	item, key, _ := h.Pop()
	if item != 2 || key != 5 {
		t.Fatalf("popped (%d,%v), want (2,5)", item, key)
	}
	if err := h.DecreaseKey(2, 1); err != ErrNotPresent {
		t.Fatalf("decrease absent: err = %v, want ErrNotPresent", err)
	}
	if err := h.DecreaseKey(0, 100); err != ErrKeyIncrease {
		t.Fatalf("increase: err = %v, want ErrKeyIncrease", err)
	}
}

func TestPushOrDecrease(t *testing.T) {
	h := New(2)
	changed, err := h.PushOrDecrease(0, 10)
	if err != nil || !changed {
		t.Fatalf("first PushOrDecrease: changed=%v err=%v", changed, err)
	}
	changed, err = h.PushOrDecrease(0, 20)
	if err != nil || changed {
		t.Fatalf("worse key should not change heap: changed=%v err=%v", changed, err)
	}
	changed, err = h.PushOrDecrease(0, 5)
	if err != nil || !changed {
		t.Fatalf("better key should change heap: changed=%v err=%v", changed, err)
	}
	_, key, _ := h.Pop()
	if key != 5 {
		t.Fatalf("key = %v, want 5", key)
	}
}

func TestContainsAndKey(t *testing.T) {
	h := New(5)
	if h.Contains(3) {
		t.Fatal("empty heap should not contain 3")
	}
	if h.Contains(-1) || h.Contains(5) {
		t.Fatal("out-of-range Contains should be false")
	}
	_ = h.Push(3, 42)
	if !h.Contains(3) {
		t.Fatal("heap should contain 3")
	}
	if h.Key(3) != 42 {
		t.Fatalf("Key(3) = %v, want 42", h.Key(3))
	}
	_, _, _ = h.Pop()
	if h.Contains(3) {
		t.Fatal("popped item should no longer be contained")
	}
}

func TestReset(t *testing.T) {
	h := New(4)
	for i := 0; i < 4; i++ {
		_ = h.Push(i, float64(i))
	}
	h.Reset()
	if !h.Empty() {
		t.Fatal("Reset should empty the heap")
	}
	for i := 0; i < 4; i++ {
		if h.Contains(i) {
			t.Fatalf("item %d should be absent after Reset", i)
		}
		if err := h.Push(i, float64(-i)); err != nil {
			t.Fatalf("re-Push after Reset: %v", err)
		}
	}
	item, key, _ := h.Pop()
	if item != 3 || key != -3 {
		t.Fatalf("popped (%d,%v), want (3,-3)", item, key)
	}
}

// TestQuickSortedDrain property: push a random permutation of keys, drain,
// result is sorted and a permutation of the input.
func TestQuickSortedDrain(t *testing.T) {
	prop := func(raw []float64) bool {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		keys := make([]float64, 0, len(raw))
		for _, k := range raw {
			if k == k { // skip NaN
				keys = append(keys, k)
			}
		}
		h := New(len(keys))
		for i, k := range keys {
			if err := h.Push(i, k); err != nil {
				return false
			}
		}
		var drained []float64
		for !h.Empty() {
			_, k, err := h.Pop()
			if err != nil {
				return false
			}
			drained = append(drained, k)
		}
		if len(drained) != len(keys) {
			return false
		}
		sort.Float64s(keys)
		for i := range keys {
			if drained[i] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomOpsAgainstModel interleaves every operation — Push,
// PushOrDecrease, DecreaseKey, Pop and Reset, with reuse after each
// Reset — and compares with a model kept as a slice sorted by key. Keys
// are small integers, so ties are the common case: among tied items any
// pop order is legal, but the popped key, the item's own key and the
// membership answers are all pinned.
func TestRandomOpsAgainstModel(t *testing.T) {
	type slot struct {
		item int
		key  float64
	}
	rng := rand.New(rand.NewSource(11))
	const capacity = 200
	for trial := 0; trial < 20; trial++ {
		h := New(capacity)
		var model []slot // sorted by key
		find := func(item int) int {
			for i, s := range model {
				if s.item == item {
					return i
				}
			}
			return -1
		}
		set := func(item int, key float64) { // insert, or lower an existing key
			if i := find(item); i >= 0 {
				model = append(model[:i], model[i+1:]...)
			}
			at := sort.Search(len(model), func(i int) bool { return model[i].key > key })
			model = append(model, slot{})
			copy(model[at+1:], model[at:])
			model[at] = slot{item, key}
		}
		for op := 0; op < 2000; op++ {
			item := rng.Intn(capacity)
			key := float64(rng.Intn(50))
			at := find(item)
			switch r := rng.Intn(100); {
			case r < 30:
				err := h.Push(item, key)
				if at >= 0 {
					if err != ErrDuplicate {
						t.Fatalf("Push of present item: err = %v, want ErrDuplicate", err)
					}
				} else if err != nil {
					t.Fatalf("Push: %v", err)
				} else {
					set(item, key)
				}
			case r < 55:
				changed, err := h.PushOrDecrease(item, key)
				if err != nil {
					t.Fatalf("PushOrDecrease: %v", err)
				}
				want := at < 0 || key < model[at].key
				if changed != want {
					t.Fatalf("PushOrDecrease(%d,%v) changed = %v, want %v", item, key, changed, want)
				}
				if want {
					set(item, key)
				}
			case r < 70:
				err := h.DecreaseKey(item, key)
				switch {
				case at < 0:
					if err != ErrNotPresent {
						t.Fatalf("DecreaseKey of absent item: err = %v, want ErrNotPresent", err)
					}
				case key > model[at].key:
					if err != ErrKeyIncrease {
						t.Fatalf("DecreaseKey upward: err = %v, want ErrKeyIncrease", err)
					}
				default:
					if err != nil {
						t.Fatalf("DecreaseKey: %v", err)
					}
					set(item, key)
				}
			case r < 97:
				pi, pk, err := h.Pop()
				if len(model) == 0 {
					if err != ErrEmpty {
						t.Fatalf("empty heap: Pop err = %v", err)
					}
					break
				}
				if err != nil {
					t.Fatalf("Pop err = %v on %d items", err, len(model))
				}
				pat := find(pi)
				if pk != model[0].key || pat < 0 || model[pat].key != pk {
					t.Fatalf("popped (%d,%v), model min key %v, model entry %d", pi, pk, model[0].key, pat)
				}
				model = append(model[:pat], model[pat+1:]...)
			default:
				h.Reset()
				model = model[:0]
			}
			if h.Len() != len(model) || h.Empty() != (len(model) == 0) {
				t.Fatalf("Len() = %d Empty() = %v, model %d", h.Len(), h.Empty(), len(model))
			}
			at = find(item)
			if h.Contains(item) != (at >= 0) || (at >= 0 && h.Key(item) != model[at].key) {
				t.Fatalf("item %d: Contains %v Key %v, model index %d", item, h.Contains(item), h.Key(item), at)
			}
		}
		// Drain: what is left comes out in key order.
		for _, want := range model {
			_, k, err := h.Pop()
			if err != nil || k != want.key {
				t.Fatalf("drain popped key %v err %v, want %v", k, err, want.key)
			}
		}
		if !h.Empty() {
			t.Fatal("heap not empty after draining the model")
		}
	}
}

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]float64, 1000)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := New(len(keys))
		for j, k := range keys {
			_ = h.Push(j, k)
		}
		for !h.Empty() {
			_, _, _ = h.Pop()
		}
	}
}

// BenchmarkHeapSearchMix drives the heap with the operation mix of the
// search it exists for — Dijkstra over a sparse random digraph, so pushes,
// improving and non-improving PushOrDecrease calls and pops arrive in a
// real search's proportions and key order. The arity constant was chosen
// on this benchmark together with core's BenchmarkRoutePoint.
func BenchmarkHeapSearchMix(b *testing.B) {
	const n, deg = 4096, 5
	rng := rand.New(rand.NewSource(2))
	to := make([]int, n*deg)
	w := make([]float64, n*deg)
	for i := range to {
		to[i] = rng.Intn(n)
		w[i] = 1 + 9*rng.Float64()
	}
	h := New(n)
	dist := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for v := range dist {
			dist[v] = math.Inf(1)
		}
		dist[0] = 0
		_ = h.Push(0, 0)
		for !h.Empty() {
			u, du, _ := h.Pop()
			for j := u * deg; j < (u+1)*deg; j++ {
				if nd := du + w[j]; nd < dist[to[j]] {
					dist[to[j]] = nd
					_, _ = h.PushOrDecrease(to[j], nd)
				}
			}
		}
	}
}
