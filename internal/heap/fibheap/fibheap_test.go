package fibheap

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyHeap(t *testing.T) {
	h := New()
	if !h.Empty() {
		t.Fatal("new heap should be empty")
	}
	if h.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", h.Len())
	}
	if _, err := h.ExtractMin(); err != ErrEmpty {
		t.Fatalf("ExtractMin on empty heap: err = %v, want ErrEmpty", err)
	}
}

func TestInsertAndMin(t *testing.T) {
	h := New()
	h.Insert(5, 50)
	h.Insert(3, 30)
	h.Insert(8, 80)
	if h.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", h.Len())
	}
	n, err := h.ExtractMin()
	if err != nil {
		t.Fatalf("ExtractMin: %v", err)
	}
	if n.Key() != 3 || n.Value() != 30 {
		t.Fatalf("min = (%v, %v), want (3, 30)", n.Key(), n.Value())
	}
	if h.Len() != 2 {
		t.Fatalf("Len() = %d after ExtractMin, want 2", h.Len())
	}
}

func TestExtractMinOrdering(t *testing.T) {
	h := New()
	keys := []float64{9, 1, 7, 3, 5, 2, 8, 4, 6, 0}
	for _, k := range keys {
		h.Insert(k, int64(k*10))
	}
	for want := 0.0; want < 10; want++ {
		n, err := h.ExtractMin()
		if err != nil {
			t.Fatalf("ExtractMin: %v", err)
		}
		if n.Key() != want {
			t.Fatalf("extracted key %v, want %v", n.Key(), want)
		}
		if n.Value() != int64(want*10) {
			t.Fatalf("extracted value %v, want %v", n.Value(), int64(want*10))
		}
	}
	if !h.Empty() {
		t.Fatal("heap should be empty after extracting everything")
	}
}

func TestDuplicateKeys(t *testing.T) {
	h := New()
	for i := 0; i < 5; i++ {
		h.Insert(7, int64(i))
	}
	seen := make(map[int64]bool)
	for i := 0; i < 5; i++ {
		n, err := h.ExtractMin()
		if err != nil {
			t.Fatalf("ExtractMin: %v", err)
		}
		if n.Key() != 7 {
			t.Fatalf("key = %v, want 7", n.Key())
		}
		seen[n.Value()] = true
	}
	if len(seen) != 5 {
		t.Fatalf("expected 5 distinct values, got %d", len(seen))
	}
}

func TestDecreaseKey(t *testing.T) {
	h := New()
	a := h.Insert(10, 1)
	h.Insert(20, 2)
	c := h.Insert(30, 3)

	if err := h.DecreaseKey(c, 5); err != nil {
		t.Fatalf("DecreaseKey: %v", err)
	}
	n, _ := h.ExtractMin()
	if n != c {
		t.Fatalf("first extracted value = %d, want 3", n.Value())
	}
	// Decrease below current min.
	if err := h.DecreaseKey(a, 1); err != nil {
		t.Fatalf("DecreaseKey: %v", err)
	}
	n, _ = h.ExtractMin()
	if n.Value() != 1 {
		t.Fatalf("second extracted value = %d, want 1", n.Value())
	}
}

func TestDecreaseKeyErrors(t *testing.T) {
	h := New()
	a := h.Insert(10, 1)
	if err := h.DecreaseKey(a, 11); err != ErrKeyIncrease {
		t.Fatalf("increase via DecreaseKey: err = %v, want ErrKeyIncrease", err)
	}
	// Same key is a legal (no-op) decrease.
	if err := h.DecreaseKey(a, 10); err != nil {
		t.Fatalf("equal-key decrease: %v", err)
	}

	other := New()
	b := other.Insert(1, 2)
	if err := h.DecreaseKey(b, 0); err != ErrForeignNode {
		t.Fatalf("foreign node: err = %v, want ErrForeignNode", err)
	}
	if err := h.DecreaseKey(nil, 0); err != ErrForeignNode {
		t.Fatalf("nil node: err = %v, want ErrForeignNode", err)
	}

	n, _ := h.ExtractMin()
	if n != a {
		t.Fatal("expected to extract a")
	}
	if err := h.DecreaseKey(a, 0); err != ErrDetachedNode {
		t.Fatalf("detached node: err = %v, want ErrDetachedNode", err)
	}
}

// TestHeapSortAgainstReference drives the heap as a sorter on random data
// and checks against sort.Float64s.
func TestHeapSortAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		keys := make([]float64, n)
		h := New()
		for i := range keys {
			keys[i] = rng.NormFloat64() * 100
			h.Insert(keys[i], int64(i))
		}
		sort.Float64s(keys)
		for i := 0; i < n; i++ {
			node, err := h.ExtractMin()
			if err != nil {
				t.Fatalf("trial %d: ExtractMin: %v", trial, err)
			}
			if node.Key() != keys[i] {
				t.Fatalf("trial %d: key[%d] = %v, want %v", trial, i, node.Key(), keys[i])
			}
		}
	}
}

// TestRandomOpsAgainstModel performs a random interleaving of Insert,
// ExtractMin and DecreaseKey and checks every observation against a naive
// slice-based model.
func TestRandomOpsAgainstModel(t *testing.T) {
	type entry struct {
		key  float64
		node *Node
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		h := New()
		var model []*entry
		for op := 0; op < 500; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // insert
				k := float64(rng.Intn(1000))
				e := &entry{key: k}
				e.node = h.Insert(k, int64(len(model)))
				model = append(model, e)
			case r < 8 && len(model) > 0: // extract-min
				minIdx := 0
				for i, e := range model {
					if e.key < model[minIdx].key {
						minIdx = i
					}
				}
				n, err := h.ExtractMin()
				if err != nil {
					t.Fatalf("ExtractMin: %v", err)
				}
				if n.Key() != model[minIdx].key {
					t.Fatalf("op %d: extracted %v, model min %v", op, n.Key(), model[minIdx].key)
				}
				// Remove the model entry matching the extracted node.
				for i, e := range model {
					if e.node == n {
						model = append(model[:i], model[i+1:]...)
						break
					}
				}
			case len(model) > 0: // decrease-key
				i := rng.Intn(len(model))
				nk := model[i].key - float64(rng.Intn(100))
				if err := h.DecreaseKey(model[i].node, nk); err != nil {
					t.Fatalf("DecreaseKey: %v", err)
				}
				model[i].key = nk
			}
			if h.Len() != len(model) {
				t.Fatalf("op %d: Len() = %d, model %d", op, h.Len(), len(model))
			}
		}
	}
}

// TestQuickExtractSorted is a property test: for any []float64, inserting
// all keys then draining the heap yields a non-decreasing sequence that is
// a permutation of the input.
func TestQuickExtractSorted(t *testing.T) {
	prop := func(keys []float64) bool {
		h := New()
		valid := keys[:0:0]
		for _, k := range keys {
			if math.IsNaN(k) {
				continue // NaN ordering is undefined for any comparison sort
			}
			valid = append(valid, k)
			h.Insert(k, 0)
		}
		prev := math.Inf(-1)
		var drained []float64
		for !h.Empty() {
			n, err := h.ExtractMin()
			if err != nil {
				return false
			}
			if n.Key() < prev {
				return false
			}
			prev = n.Key()
			drained = append(drained, n.Key())
		}
		if len(drained) != len(valid) {
			return false
		}
		sort.Float64s(valid)
		for i := range valid {
			if drained[i] != valid[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStructuralInvariants exercises enough operations to create deep
// trees, then verifies the heap property on the internal structure.
func TestStructuralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	h := New()
	nodes := make([]*Node, 0, 2000)
	for i := 0; i < 2000; i++ {
		nodes = append(nodes, h.Insert(float64(rng.Intn(10000)), int64(i)))
	}
	for i := 0; i < 500; i++ {
		if _, err := h.ExtractMin(); err != nil {
			t.Fatalf("ExtractMin: %v", err)
		}
	}
	for i := 0; i < 500; i++ {
		n := nodes[rng.Intn(len(nodes))]
		if n.owner != h {
			continue // already extracted
		}
		_ = h.DecreaseKey(n, n.Key()-float64(rng.Intn(50)))
	}
	verifyHeapProperty(t, h)
}

func verifyHeapProperty(t *testing.T, h *Heap) {
	t.Helper()
	if h.min == nil {
		return
	}
	count := 0
	var walk func(n *Node, parentKey float64, isRoot bool)
	walk = func(start *Node, parentKey float64, isRoot bool) {
		c := start
		for {
			count++
			if !isRoot && c.key < parentKey {
				t.Fatalf("heap property violated: child %v < parent %v", c.key, parentKey)
			}
			if c.key < h.min.key {
				t.Fatalf("node %v smaller than tracked min %v", c.key, h.min.key)
			}
			if c.child != nil {
				walk(c.child, c.key, false)
			}
			c = c.right
			if c == start {
				return
			}
		}
	}
	walk(h.min, math.Inf(-1), true)
	if count != h.n {
		t.Fatalf("reachable nodes = %d, Len() = %d", count, h.n)
	}
}

func BenchmarkInsertExtract(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := New()
		for j := 0; j < 1000; j++ {
			h.Insert(rng.Float64(), int64(j))
		}
		for !h.Empty() {
			if _, err := h.ExtractMin(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDecreaseKey(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := New()
	nodes := make([]*Node, 10000)
	for j := range nodes {
		nodes[j] = h.Insert(float64(1e9+j), int64(j))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := nodes[rng.Intn(len(nodes))]
		_ = h.DecreaseKey(n, n.Key()-1)
	}
}
