// Package fibheap implements a Fibonacci heap (Fredman & Tarjan, JACM 1987)
// keyed by float64 priorities with int64 payloads.
//
// The heap carries the operations Dijkstra's algorithm issues, with the
// amortized bounds the paper's Theorem 1 relies on:
//
//	Insert       O(1)
//	ExtractMin   O(log n) amortized
//	DecreaseKey  O(1) amortized
//
// Nodes are exposed as opaque *Node handles so callers (Dijkstra) can
// perform DecreaseKey on specific entries. The zero value of Heap is an
// empty heap ready for use.
package fibheap

import "errors"

// Errors returned by heap operations.
var (
	// ErrEmpty is returned when extracting from an empty heap.
	ErrEmpty = errors.New("fibheap: empty heap")
	// ErrKeyIncrease is returned when DecreaseKey is called with a larger key.
	ErrKeyIncrease = errors.New("fibheap: new key is greater than current key")
	// ErrForeignNode is returned when a node belongs to a different heap.
	ErrForeignNode = errors.New("fibheap: node does not belong to this heap")
	// ErrDetachedNode is returned when operating on an already-removed node.
	ErrDetachedNode = errors.New("fibheap: node was already removed")
)

// Node is a handle to an entry stored in a Heap. A Node is created by
// Insert and invalidated by ExtractMin on it.
type Node struct {
	key    float64
	value  int64
	parent *Node
	child  *Node
	left   *Node
	right  *Node
	degree int
	mark   bool
	owner  *Heap
}

// Key reports the node's current priority.
func (n *Node) Key() float64 { return n.key }

// Value reports the node's payload.
func (n *Node) Value() int64 { return n.value }

// Heap is a Fibonacci heap. The zero value is an empty heap ready to use.
// Heap is not safe for concurrent use.
type Heap struct {
	min *Node
	n   int

	// scratch is the consolidation degree table, reused across
	// ExtractMin calls to avoid repeated allocation.
	scratch []*Node
}

// New returns an empty heap. Equivalent to &Heap{}; provided for symmetry
// with the other heap packages.
func New() *Heap { return &Heap{} }

// Empty reports whether the heap has no entries.
func (h *Heap) Empty() bool { return h.n == 0 }

// Insert adds a new entry with the given key and value and returns its
// handle. O(1).
func (h *Heap) Insert(key float64, value int64) *Node {
	x := &Node{key: key, value: value, owner: h}
	x.left = x
	x.right = x
	h.addToRoots(x)
	h.n++
	return x
}

// ExtractMin removes and returns the node with the smallest key.
// O(log n) amortized.
func (h *Heap) ExtractMin() (*Node, error) {
	z := h.min
	if z == nil {
		return nil, ErrEmpty
	}
	// Promote z's children to root list.
	if z.child != nil {
		c := z.child
		for {
			next := c.right
			c.parent = nil
			h.addToRoots(c)
			if next == z.child {
				break
			}
			c = next
		}
		z.child = nil
	}
	h.removeFromRoots(z)
	if z == z.right {
		h.min = nil
	} else {
		h.min = z.right
		h.consolidate()
	}
	h.n--
	z.owner = nil
	z.left = nil
	z.right = nil
	return z, nil
}

// DecreaseKey lowers the key of node x to newKey. O(1) amortized.
func (h *Heap) DecreaseKey(x *Node, newKey float64) error {
	if x == nil || x.owner != h {
		if x != nil && x.owner == nil {
			return ErrDetachedNode
		}
		return ErrForeignNode
	}
	if newKey > x.key {
		return ErrKeyIncrease
	}
	x.key = newKey
	y := x.parent
	if y != nil && x.key < y.key {
		h.cut(x, y)
		h.cascadingCut(y)
	}
	if x.key < h.min.key {
		h.min = x
	}
	return nil
}

func (h *Heap) addToRoots(x *Node) {
	if h.min == nil {
		x.left = x
		x.right = x
		h.min = x
		return
	}
	x.left = h.min
	x.right = h.min.right
	h.min.right.left = x
	h.min.right = x
	if x.key < h.min.key {
		h.min = x
	}
}

func (h *Heap) removeFromRoots(x *Node) {
	x.left.right = x.right
	x.right.left = x.left
}

// consolidate merges root trees of equal degree until all roots have
// distinct degrees, then rebuilds the min pointer.
func (h *Heap) consolidate() {
	// Max degree is bounded by log_phi(n); 64 bits of n keeps this < 92.
	maxDeg := 2
	for nn := h.n; nn > 0; nn >>= 1 {
		maxDeg++
	}
	maxDeg = maxDeg*3/2 + 2
	if cap(h.scratch) < maxDeg {
		h.scratch = make([]*Node, maxDeg)
	}
	deg := h.scratch[:maxDeg]
	for i := range deg {
		deg[i] = nil
	}

	// Snapshot the root list: consolidation relinks as it goes.
	var roots []*Node
	if h.min != nil {
		c := h.min
		for {
			roots = append(roots, c)
			c = c.right
			if c == h.min {
				break
			}
		}
	}
	for _, w := range roots {
		x := w
		d := x.degree
		for deg[d] != nil {
			y := deg[d]
			if y.key < x.key {
				x, y = y, x
			}
			h.link(y, x)
			deg[d] = nil
			d++
		}
		deg[d] = x
	}

	h.min = nil
	for _, x := range deg {
		if x == nil {
			continue
		}
		x.left = x
		x.right = x
		if h.min == nil {
			h.min = x
		} else {
			h.addToRoots(x)
		}
	}
}

// link makes y a child of x. Both must be roots and key(x) <= key(y).
func (h *Heap) link(y, x *Node) {
	h.removeFromRoots(y)
	y.parent = x
	if x.child == nil {
		y.left = y
		y.right = y
		x.child = y
	} else {
		y.left = x.child
		y.right = x.child.right
		x.child.right.left = y
		x.child.right = y
	}
	x.degree++
	y.mark = false
}

// cut detaches x from its parent y and moves it to the root list.
func (h *Heap) cut(x, y *Node) {
	if x.right == x {
		y.child = nil
	} else {
		x.left.right = x.right
		x.right.left = x.left
		if y.child == x {
			y.child = x.right
		}
	}
	y.degree--
	x.parent = nil
	x.mark = false
	h.addToRoots(x)
}

// cascadingCut implements the marking rule: a non-root node that loses a
// second child is itself cut, recursively.
func (h *Heap) cascadingCut(y *Node) {
	for {
		z := y.parent
		if z == nil {
			return
		}
		if !y.mark {
			y.mark = true
			return
		}
		h.cut(y, z)
		y = z
	}
}
