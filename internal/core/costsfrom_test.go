package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/graph"
)

// TestCostsFromMatchesRouteFrom is the differential of the one
// single-source pass's two readers: for every source on every fixture
// topology × converter family, on the served bucket queue and on the
// binary heap, CostsFrom's row equals RouteFrom's Dist bit for bit, and
// their rescans agree — on a fresh compile and on the end of a 50-epoch
// delta chain over it.
func TestCostsFromMatchesRouteFrom(t *testing.T) {
	for conv, spec := range directedConvs {
		for name, nw := range directedFixtures(t, spec) {
			a := mustAux(t, nw)
			chained := deepChain(t, a, rand.New(rand.NewSource(67)), 50)
			for _, g := range []struct {
				name string
				aux  *Aux
			}{{"fresh", a}, {"chain50", chained}} {
				for _, q := range []graph.QueueKind{graph.QueueBucket, graph.QueueBinary} {
					what := conv + "/" + name + "/" + g.name + "/" + q.String()
					opts := &Options{Queue: q}
					row := make([]float64, nw.NumNodes())
					for s := 0; s < nw.NumNodes(); s++ {
						st, err := g.aux.RouteFrom(s, opts)
						if err != nil {
							t.Fatalf("%s: RouteFrom(%d): %v", what, s, err)
						}
						rescans, err := g.aux.CostsFrom(s, opts, row)
						if err != nil {
							t.Fatalf("%s: CostsFrom(%d): %v", what, s, err)
						}
						if rescans != st.Rescans() {
							t.Fatalf("%s: source %d: %d rescans, the tree's pass %d", what, s, rescans, st.Rescans())
						}
						for d, c := range row {
							if math.Float64bits(c) != math.Float64bits(st.Dist(d)) {
								t.Fatalf("%s: %d->%d: row %v, tree %v", what, s, d, c, st.Dist(d))
							}
						}
					}
				}
			}
		}
	}
}

// TestCostsFromRejects: a source out of range and a row of the wrong
// length are errors, and neither runs a pass.
func TestCostsFromRejects(t *testing.T) {
	a := mustAux(t, deltaNetwork(t, 3))
	n := a.Network().NumNodes()
	if _, err := a.CostsFrom(n, nil, make([]float64, n)); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("source %d of %d: %v", n, n, err)
	}
	if _, err := a.CostsFrom(0, nil, make([]float64, n-1)); err == nil {
		t.Fatalf("a row of %d entries for %d nodes was accepted", n-1, n)
	}
}
