package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/graph"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

var allQueues = []graph.QueueKind{graph.QueueFibonacci, graph.QueueBinary, graph.QueueLinear, graph.QueueBucket}

// tieHeavyAux builds a small random instance on which equal-cost optima
// are the rule: channel weights are integers in 0..2 (so zero-weight
// channels occur), conversion is absent, free, unit-cost or
// range-limited, the last node has no outgoing link and the one before it
// no incoming link, and the residual drops channels from the layout so
// some shore wavelengths are unreachable gadget nodes.
func tieHeavyAux(t *testing.T, rng *rand.Rand) *Aux {
	t.Helper()
	n, k := 3+rng.Intn(7), 1+rng.Intn(4)
	layout := wdm.NewNetwork(n, k)
	switch rng.Intn(5) {
	case 0:
		layout.SetConverter(wdm.NoConversion{})
	case 1:
		layout.SetConverter(wdm.UniformConversion{C: 0})
	case 2:
		layout.SetConverter(wdm.UniformConversion{C: 1})
	case 3:
		layout.SetConverter(wdm.DistanceConversion{Radius: 1, PerStep: 1})
	} // case 4: no converter installed at all
	for u := 0; u < n-1; u++ { // node n-1 never transmits
		for v := 0; v < n; v++ {
			if u == v || v == n-2 || rng.Float64() > 0.45 { // node n-2 never receives
				continue
			}
			var chans []wdm.Channel
			for l := 0; l < k; l++ {
				if rng.Float64() < 0.7 {
					chans = append(chans, wdm.Channel{Lambda: wdm.Wavelength(l), Weight: float64(rng.Intn(3))})
				}
			}
			if _, err := layout.AddLink(u, v, chans); err != nil {
				t.Fatal(err)
			}
		}
	}
	drop := make(map[int][]wdm.Channel)
	for _, l := range layout.Links() {
		if rng.Float64() < 0.3 {
			var kept []wdm.Channel
			for _, c := range l.Channels {
				if rng.Float64() < 0.5 {
					kept = append(kept, c)
				}
			}
			drop[l.ID] = kept
		}
	}
	residual, err := layout.PatchChannels(drop)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAuxWithLayout(layout, residual)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestRouteMatchesExhaustiveSearch: stopping at the first X_t node (plus
// its key plateau) must not change a single answer. For every ordered
// pair of tie-heavy random instances and every queue kind, Route returns
// the cost — bit for bit — and the path of an exhaustive search over the
// whole auxiliary graph followed by the virtual super sink's argmin over
// X_t (lowest shore index on ties), and blocks exactly when that argmin
// is empty.
func TestRouteMatchesExhaustiveSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	ties := 0
	for trial := 0; trial < 60; trial++ {
		a := tieHeavyAux(t, rng)
		n := a.nw.NumNodes()
		for _, kind := range allQueues {
			opts := &Options{Queue: kind}
			for s := 0; s < n; s++ {
				// ref is the independent reference for costs and blocked
				// verdicts: the unmasked search, to exhaustion. full is the
				// kernel Route runs (Y shore passed through on the binary
				// queue — which is also what a point query runs under the
				// bucket queue), needed only because among equal-cost optima
				// the masked queue may hold another path than the unmasked
				// one.
				routeKind := kind
				if kind == graph.QueueBucket {
					routeKind = graph.QueueBinary
				}
				var ref, full *graph.ShortestPathTree
				if seeds := a.sourceSeeds(nil, s); len(seeds) > 0 {
					var err error
					if ref, err = graph.DijkstraSeedsUntil(a.g, seeds, nil, kind); err != nil {
						t.Fatal(err)
					}
					if full, err = graph.DijkstraSeedsUntilScratch(a.g, seeds, nil, routeKind, nil, a.yPass); err != nil {
						t.Fatal(err)
					}
				}
				for dst := 0; dst < n; dst++ {
					if dst == s {
						continue
					}
					best, bestDist, tied := -1, graph.Inf, false
					for xi := range a.xLambdas[dst] {
						x := int(a.xStart[dst]) + xi
						if ref == nil {
							break
						}
						if d := ref.Dist[x]; d < bestDist {
							best, bestDist, tied = x, d, false
						} else if d == bestDist && best >= 0 {
							tied = true
						}
					}
					res, err := a.Route(s, dst, opts)
					if best < 0 {
						if !errors.Is(err, ErrNoRoute) {
							t.Fatalf("trial %d %v %d->%d: err = %v, exhaustive search finds no route", trial, kind, s, dst, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("trial %d %v %d->%d: %v, exhaustive search finds cost %v", trial, kind, s, dst, err, bestDist)
					}
					if tied {
						ties++
					}
					if math.Float64bits(res.Cost) != math.Float64bits(bestDist) {
						t.Fatalf("trial %d %v %d->%d: cost %v, exhaustive %v", trial, kind, s, dst, res.Cost, bestDist)
					}
					if math.Float64bits(full.Dist[best]) != math.Float64bits(bestDist) {
						t.Fatalf("trial %d %v %d->%d: masked exhaustive %v, unmasked %v", trial, kind, s, dst, full.Dist[best], bestDist)
					}
					want, err := a.extractPath(full, best)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Path.Hops) != len(want.Hops) {
						t.Fatalf("trial %d %v %d->%d: path %v, exhaustive %v", trial, kind, s, dst, res.Path.Hops, want.Hops)
					}
					for i := range want.Hops {
						if res.Path.Hops[i] != want.Hops[i] {
							t.Fatalf("trial %d %v %d->%d: path %v, exhaustive %v", trial, kind, s, dst, res.Path.Hops, want.Hops)
						}
					}
					if res.Stats.Settled > full.Settled {
						t.Fatalf("trial %d %v %d->%d: settled %d > exhaustive %d", trial, kind, s, dst, res.Stats.Settled, full.Settled)
					}
				}
			}
		}
	}
	if ties < 100 {
		t.Fatalf("only %d queries had tied X_t optima; the generator no longer exercises the tie-break", ties)
	}
}

// TestSearchStatsCountSuperTerminalArcs pins |E'_{s,t}|: the compiled
// arcs plus one 0-weight arc per Y_s node (out of s′) and per X_t node
// (into t″), matching AuxNodes' count of both super terminals.
func TestSearchStatsCountSuperTerminalArcs(t *testing.T) {
	nw, err := topo.PaperExample(topo.DefaultPaperExampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	n := nw.NumNodes()
	for s := 0; s < n; s++ {
		for dst := 0; dst < n; dst++ {
			if s == dst {
				continue
			}
			want := a.NumAuxArcs() + len(a.yLambdas[s]) + len(a.xLambdas[dst])
			if res, err := a.Route(s, dst, nil); err == nil && res.Stats.AuxArcs != want {
				t.Fatalf("Route %d->%d: AuxArcs = %d, want %d", s, dst, res.Stats.AuxArcs, want)
			}
			if res, err := a.RouteBounded(s, dst, n, nil); err == nil && res.Stats.AuxArcs != want {
				t.Fatalf("RouteBounded %d->%d: AuxArcs = %d, want %d", s, dst, res.Stats.AuxArcs, want)
			}
		}
	}
}

// TestRouteFromMissAllocations pins what an uncached single-source pass
// allocates: the SourceTree, its two per-node arrays and the parent and
// via-arc arrays path extraction walks — five objects. The bucket
// queue's entry array, the distance array and the seed list come from
// the scratch pool; passing the Y shore through adds nothing.
func TestRouteFromMissAllocations(t *testing.T) {
	nw, err := workload.Build(topo.NSFNET(), workload.RestrictedSpec(8), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Queue: graph.QueueBucket}
	if _, err := a.RouteFrom(0, opts); err != nil { // warm the pool
		t.Fatal(err)
	}
	// Best of several short measurements: under the race detector
	// sync.Pool drops a quarter of its Puts on purpose, and a dropped
	// scratch shows up as a rebuild in the next call.
	src, best := 0, math.Inf(1)
	for i := 0; i < 16; i++ {
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := a.RouteFrom(src, opts); err != nil {
				t.Fatal(err)
			}
			src = (src + 1) % nw.NumNodes()
		})
		best = math.Min(best, allocs)
	}
	if best > 5 {
		t.Fatalf("RouteFrom miss allocates %v objects per call, want ≤ 5", best)
	}
}
