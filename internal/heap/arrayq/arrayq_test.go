package arrayq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	q := New(4)
	if !q.Empty() {
		t.Fatal("new queue should be empty")
	}
	if _, _, err := q.Pop(); err != ErrEmpty {
		t.Fatalf("Pop on empty: err = %v, want ErrEmpty", err)
	}
}

func TestOrdering(t *testing.T) {
	q := New(10)
	keys := []float64{9, 1, 7, 3, 5, 2, 8, 4, 6, 0}
	for item, k := range keys {
		q.PushOrDecrease(item, k)
	}
	for want := 0.0; want < 10; want++ {
		item, key, err := q.Pop()
		if err != nil {
			t.Fatalf("Pop: %v", err)
		}
		if key != want || keys[item] != want {
			t.Fatalf("popped (%d,%v), want key %v", item, key, want)
		}
	}
	if !q.Empty() {
		t.Fatal("queue should be drained")
	}
}

func TestPushOrDecreaseSemantics(t *testing.T) {
	q := New(2)
	if !q.PushOrDecrease(0, 10) {
		t.Fatal("insert should report change")
	}
	if q.PushOrDecrease(0, 15) {
		t.Fatal("worse key should not change")
	}
	if !q.PushOrDecrease(0, 3) {
		t.Fatal("better key should change")
	}
	item, key, err := q.Pop()
	if err != nil || item != 0 || key != 3 {
		t.Fatalf("Pop = (%d, %v, %v), want (0, 3, nil)", item, key, err)
	}
	if !q.Empty() {
		t.Fatal("one item pushed three times should pop once")
	}
}

// TestQuickSortedDrain property: drain order is sorted.
func TestQuickSortedDrain(t *testing.T) {
	prop := func(raw []float64) bool {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		keys := make([]float64, 0, len(raw))
		for _, k := range raw {
			if k == k {
				keys = append(keys, k)
			}
		}
		q := New(len(keys))
		for i, k := range keys {
			q.PushOrDecrease(i, k)
		}
		var drained []float64
		for !q.Empty() {
			_, k, err := q.Pop()
			if err != nil {
				return false
			}
			drained = append(drained, k)
		}
		sort.Float64s(keys)
		if len(drained) != len(keys) {
			return false
		}
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

func TestAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const capacity = 64
	q := New(capacity)
	model := make(map[int]float64)
	for op := 0; op < 2000; op++ {
		if rng.Intn(2) == 0 || len(model) == 0 {
			item := rng.Intn(capacity)
			key := float64(rng.Intn(100))
			if old, ok := model[item]; !ok || key < old {
				model[item] = key
			}
			q.PushOrDecrease(item, key)
		} else {
			item, key, err := q.Pop()
			if err != nil {
				t.Fatalf("Pop: %v", err)
			}
			for _, k := range model {
				if k < key {
					t.Fatalf("popped %v but model holds smaller %v", key, k)
				}
			}
			if model[item] != key {
				t.Fatalf("popped item %d key %v, model %v", item, key, model[item])
			}
			delete(model, item)
		}
		if q.Empty() != (len(model) == 0) {
			t.Fatalf("Empty = %v, model holds %d", q.Empty(), len(model))
		}
	}
}
