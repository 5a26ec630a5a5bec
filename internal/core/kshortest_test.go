package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

func TestKShortestArgs(t *testing.T) {
	nw := paperNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.KShortest(-1, 0, 1); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad source: %v", err)
	}
	if _, err := a.KShortest(0, 99, 1); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad dest: %v", err)
	}
	if _, err := a.KShortest(0, 1, 0); err == nil {
		t.Fatal("zero count must fail")
	}
	if _, err := a.KShortest(6, 0, 3); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unreachable: %v", err)
	}
	res, err := a.KShortest(2, 2, 3)
	if err != nil || len(res) != 1 || res[0].Cost != 0 {
		t.Fatalf("s==t: %+v %v", res, err)
	}
}

// TestKShortestParallelChannels: one link with three wavelengths has
// exactly three semilightpaths.
func TestKShortestParallelChannels(t *testing.T) {
	nw := wdm.NewNetwork(2, 3)
	if _, err := nw.AddLink(0, 1, []wdm.Channel{
		{Lambda: 0, Weight: 1},
		{Lambda: 1, Weight: 2},
		{Lambda: 2, Weight: 3},
	}); err != nil {
		t.Fatal(err)
	}
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := a.KShortest(0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	for i, want := range []float64{1, 2, 3} {
		if paths[i].Cost != want {
			t.Fatalf("path %d cost = %v, want %v", i, paths[i].Cost, want)
		}
		if err := paths[i].Path.Validate(nw, 0, 1); err != nil {
			t.Fatalf("path %d invalid: %v", i, err)
		}
	}
}

// TestKShortestChainEnumeration: a 2-hop chain with 2 wavelengths per
// link has exactly 4 semilightpaths with known costs.
func TestKShortestChainEnumeration(t *testing.T) {
	nw := wdm.NewNetwork(3, 2)
	for _, uv := range [][2]int{{0, 1}, {1, 2}} {
		if _, err := nw.AddLink(uv[0], uv[1], []wdm.Channel{
			{Lambda: 0, Weight: 1},
			{Lambda: 1, Weight: 2},
		}); err != nil {
			t.Fatal(err)
		}
	}
	nw.SetConverter(wdm.UniformConversion{C: 0.1})
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := a.KShortest(0, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3.1, 3.1, 4}
	if len(paths) != len(want) {
		t.Fatalf("got %d paths, want %d", len(paths), len(want))
	}
	for i, w := range want {
		if math.Abs(paths[i].Cost-w) > 1e-9 {
			t.Fatalf("path %d cost = %v, want %v", i, paths[i].Cost, w)
		}
	}
	// All four must be pairwise distinct hop sequences.
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			if samePath(paths[i].Path, paths[j].Path) {
				t.Fatalf("paths %d and %d identical", i, j)
			}
		}
	}
}

func samePath(a, b *wdm.Semilightpath) bool {
	if len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			return false
		}
	}
	return true
}

// TestKShortestFirstIsOptimal: the first result always matches Route.
func TestKShortestFirstIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		tp := topo.RandomSparse(6+rng.Intn(10), 3, 5, rng)
		nw, err := workload.Build(tp, workload.RestrictedSpec(3), rng)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewAux(nw)
		if err != nil {
			t.Fatal(err)
		}
		s, d := rng.Intn(tp.N), rng.Intn(tp.N)
		if s == d {
			continue
		}
		route, rerr := a.Route(s, d, nil)
		paths, kerr := a.KShortest(s, d, 4)
		if (rerr == nil) != (kerr == nil) {
			t.Fatalf("trial %d: reachability disagrees: %v vs %v", trial, rerr, kerr)
		}
		if rerr != nil {
			continue
		}
		if math.Abs(paths[0].Cost-route.Cost) > 1e-9 {
			t.Fatalf("trial %d: K=1 cost %v != Route cost %v", trial, paths[0].Cost, route.Cost)
		}
		// Nondecreasing costs, all valid.
		for i, p := range paths {
			if i > 0 && p.Cost < paths[i-1].Cost-1e-9 {
				t.Fatalf("trial %d: costs not sorted: %v then %v", trial, paths[i-1].Cost, p.Cost)
			}
			if err := p.Path.Validate(nw, s, d); err != nil {
				t.Fatalf("trial %d: path %d invalid: %v", trial, i, err)
			}
			if got := p.Path.Cost(nw); math.Abs(got-p.Cost) > 1e-9 {
				t.Fatalf("trial %d: path %d reported %v, recomputed %v", trial, i, p.Cost, got)
			}
		}
	}
}

// TestKShortestDoesNotDisturbRouting: running KShortest must not corrupt
// the shared Aux for subsequent Route calls.
func TestKShortestDoesNotDisturbRouting(t *testing.T) {
	nw := paperNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	before, err := a.Route(0, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.KShortest(0, 6, 3); err != nil {
		t.Fatal(err)
	}
	after, err := a.Route(0, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if before.Cost != after.Cost {
		t.Fatalf("Route changed after KShortest: %v vs %v", before.Cost, after.Cost)
	}
}

// costsAgree is the engine differential's tolerance: two costs summed in
// a different order agree to 1e-9, absolute or relative.
func costsAgree(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9 || diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// simplePathCosts enumerates every simple s′→t″ path of G_{s,t} by depth
// first search and returns their costs ascending: a path leaves s′ into
// Y_s, and ends at t″ from whichever X_t node it last reached — passing
// one X_t node and ending at another is a different path.
func simplePathCosts(a *Aux, s, t int) []float64 {
	var costs []float64
	onPath := make([]bool, a.NumAuxNodes())
	var walk func(u int, cost float64)
	walk = func(u int, cost float64) {
		if in := a.info[u]; in.Side == SideX && int(in.Node) == t {
			costs = append(costs, cost)
		}
		onPath[u] = true
		for _, arc := range a.g.Out(u) {
			if !onPath[arc.To] {
				walk(int(arc.To), cost+arc.Weight)
			}
		}
		onPath[u] = false
	}
	for yi := range a.yLambdas[s] {
		walk(int(a.yStart[s])+yi, 0)
	}
	sort.Float64s(costs)
	return costs
}

// TestKShortestMatchesEnumeration: Yen's paths are the cheapest simple
// paths of G_{s,t}, checked against exhaustive enumeration on networks
// of at most six nodes under every converter family. Each path must be
// simple in G′ — no gadget node twice — and price to its cost under
// Eq. (1).
func TestKShortestMatchesEnumeration(t *testing.T) {
	const maxK = 40
	for conv, spec := range directedConvs {
		spec.K = 3
		t.Run(conv, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3939))
			enumerated := 0
			for trial := 0; trial < 12; trial++ {
				n := 3 + rng.Intn(4)
				nw, err := workload.Build(topo.RandomSparse(n, 3, 3, rng), spec, rng)
				if err != nil {
					t.Fatal(err)
				}
				a := mustAux(t, nw)
				s := rng.Intn(n)
				d := (s + 1 + rng.Intn(n-1)) % n
				want := simplePathCosts(a, s, d)
				enumerated += len(want)
				count := min(len(want)+1, maxK)
				paths, err := a.KShortest(s, d, count)
				if len(want) == 0 {
					if !errors.Is(err, ErrNoRoute) {
						t.Fatalf("trial %d %d→%d: no path enumerated, KShortest says %v", trial, s, d, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("trial %d %d→%d: %v", trial, s, d, err)
				}
				if len(paths) != min(len(want), count) {
					t.Fatalf("trial %d %d→%d: %d paths for K=%d, %d simple paths exist", trial, s, d, len(paths), count, len(want))
				}
				seen := make(map[string]bool, len(paths))
				for i, p := range paths {
					if !costsAgree(p.Cost, want[i]) {
						t.Fatalf("trial %d %d→%d: path %d costs %v, the %d-th cheapest simple path %v", trial, s, d, i, p.Cost, i, want[i])
					}
					if err := p.Path.Validate(nw, s, d); err != nil {
						t.Fatalf("trial %d: path %d: %v", trial, i, err)
					}
					if got := p.Path.Cost(nw); !costsAgree(got, p.Cost) {
						t.Fatalf("trial %d: path %d reported %v, Eq. (1) prices it %v", trial, i, p.Cost, got)
					}
					if key := p.Path.String(nw); seen[key] {
						t.Fatalf("trial %d: path %d repeats %s", trial, i, key)
					} else {
						seen[key] = true
					}
					checkSimpleInAux(t, a, p.Path)
				}
			}
			if enumerated == 0 {
				t.Fatal("no instance had a path: the fixtures test nothing")
			}
		})
	}
}

// checkSimpleInAux fails when path visits a gadget node of G′ twice: hop
// (e=(u,v), λ) leaves Y_u(λ) and enters X_v(λ).
func checkSimpleInAux(t *testing.T, a *Aux, path *wdm.Semilightpath) {
	t.Helper()
	visited := make(map[int]bool, 2*len(path.Hops))
	for _, h := range path.Hops {
		l := a.nw.Link(h.Link)
		y, okY := a.yIndex(l.From, h.Wavelength)
		x, okX := a.xIndex(l.To, h.Wavelength)
		if !okY || !okX {
			t.Fatalf("hop %+v has no gadget nodes", h)
		}
		if visited[y] || visited[x] {
			t.Fatalf("path %+v visits a gadget node twice", path.Hops)
		}
		visited[y], visited[x] = true, true
	}
}
