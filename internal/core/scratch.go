package core

import (
	"sync"

	"lightpath/internal/graph"
)

// queryScratch bundles everything one query needs to borrow: the
// graph-layer Dijkstra scratch, the seed/goal list backings and the
// buffers the traced path renders its per-λ profile in. It is recycled
// through a scratchPool so steady-state Route calls allocate nothing
// inside the search.
type queryScratch struct {
	g     *graph.Scratch
	bound *boundScratch // physical lower bound, built on first astar query
	seeds []int
	goals []int

	lambdaCount []int  // reachedPerLambda: reached X-shore nodes per wavelength
	attrBuf     []byte // reachedPerLambda: rendered attribute value
}

// scratchPool recycles queryScratch values for one auxiliary-graph node
// count. Delta-built Aux chains share their root's pool (the node space
// is identical), so churn does not restart the pool cold.
type scratchPool struct {
	n int
	p sync.Pool
}

func newScratchPool(n int) *scratchPool {
	sp := &scratchPool{n: n}
	sp.p.New = func() any {
		return &queryScratch{g: graph.NewScratch(sp.n)}
	}
	return sp
}

func (sp *scratchPool) get() *queryScratch   { return sp.p.Get().(*queryScratch) }
func (sp *scratchPool) put(qs *queryScratch) { sp.p.Put(qs) }
