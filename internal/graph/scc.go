package graph

// StronglyConnectedComponents computes the SCC decomposition of the
// graph with Tarjan's algorithm (iterative, so deep graphs cannot
// overflow the goroutine stack). Components are returned in reverse
// topological order of the condensation — the order Tarjan emits them —
// and every node appears in exactly one component.
//
// No routing path calls it: the topology generators promise strong
// connectivity, but Topology.Validate checks only edge ranges.
func StronglyConnectedComponents(g *Digraph) [][]int {
	n := g.NumNodes()
	const unvisited = -1
	var (
		index   = make([]int32, n)
		lowlink = make([]int32, n)
		onStack = make([]bool, n)
		stack   = make([]int32, 0, n)
		next    int32
		comps   [][]int
	)
	for i := range index {
		index[i] = unvisited
	}

	// Explicit DFS frames: node plus position in its adjacency list.
	type frame struct {
		v   int32
		arc int32
	}
	var frames []frame

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: int32(root)})
		index[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			adj := g.Out(int(v))
			if int(f.arc) < len(adj) {
				w := adj[f.arc].To
				f.arc++
				if index[w] == unvisited {
					index[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
				continue
			}
			// v is finished: pop its frame, propagate lowlink, and emit
			// a component if v is a root.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if lowlink[v] < lowlink[parent] {
					lowlink[parent] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, int(w))
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// IsStronglyConnected reports whether the graph is one SCC. Empty and
// single-node graphs are strongly connected by convention.
func IsStronglyConnected(g *Digraph) bool {
	if g.NumNodes() <= 1 {
		return true
	}
	return len(StronglyConnectedComponents(g)) == 1
}
