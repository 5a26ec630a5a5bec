package core

import (
	"errors"
	"fmt"
	"testing"

	"lightpath/internal/wdm"
)

// chain builds a path network 0-1-...-n-1 with one unit-weight channel
// per link, plus an isolated extra node at index n (for unreachability
// cases).
func chainWithIsland(t *testing.T, n int) *wdm.Network {
	t.Helper()
	nw := wdm.NewNetwork(n+1, 1)
	for v := 0; v+1 < n; v++ {
		if _, err := nw.AddLink(v, v+1, []wdm.Channel{{Lambda: 0, Weight: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

// tieNet gives 0→3 two equal-cost routes with different hop counts: a
// 2-hop route via 4 (1.5 + 1.5) and a 3-hop route via 1, 2 (1 + 1 + 1),
// both priced 3. A solver may break the cost tie either way unbounded,
// but at maxHops=2 only the short route fits.
func tieNet(t *testing.T) *wdm.Network {
	t.Helper()
	nw := wdm.NewNetwork(5, 1)
	add := func(u, v int, w float64) {
		t.Helper()
		if _, err := nw.AddLink(u, v, []wdm.Channel{{Lambda: 0, Weight: w}}); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 4, 1.5)
	add(4, 3, 1.5)
	add(0, 1, 1)
	add(1, 2, 1)
	add(2, 3, 1)
	return nw
}

// TestRouteBoundedEdgeTable drives RouteBounded through its boundary
// conditions as one table: zero budgets, unreachable destinations and
// bounds that sit exactly on the needed hop count.
func TestRouteBoundedEdgeTable(t *testing.T) {
	chain := chainWithIsland(t, 4) // 0-1-2-3 plus island node 4
	tie := tieNet(t)

	cases := []struct {
		name     string
		nw       *wdm.Network
		s, t     int
		maxHops  int
		wantErr  error
		wantCost float64
		wantHops int
	}{
		{name: "zero bound, distinct endpoints", nw: chain, s: 0, t: 1, maxHops: 0, wantErr: ErrNoRoute},
		{name: "zero bound, same endpoint", nw: chain, s: 2, t: 2, maxHops: 0, wantCost: 0, wantHops: 0},
		{name: "island unreachable at any bound", nw: chain, s: 0, t: 4, maxHops: 100, wantErr: ErrNoRoute},
		{name: "island unreachable in reverse", nw: chain, s: 4, t: 0, maxHops: 100, wantErr: ErrNoRoute},
		{name: "bound one below needed", nw: chain, s: 0, t: 3, maxHops: 2, wantErr: ErrNoRoute},
		{name: "bound exactly the needed hops", nw: chain, s: 0, t: 3, maxHops: 3, wantCost: 3, wantHops: 3},
		{name: "bound far above needed", nw: chain, s: 0, t: 3, maxHops: 50, wantCost: 3, wantHops: 3},
		{name: "cost tie resolved to fewer hops when bound bites", nw: tie, s: 0, t: 3, maxHops: 2, wantCost: 3, wantHops: 2},
		{name: "cost tie loose bound keeps optimal cost", nw: tie, s: 0, t: 3, maxHops: 3, wantCost: 3, wantHops: -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAux(tc.nw)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.RouteBounded(tc.s, tc.t, tc.maxHops, nil)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != tc.wantCost {
				t.Fatalf("cost = %v, want %v", res.Cost, tc.wantCost)
			}
			if tc.wantHops >= 0 && res.Path.Len() != tc.wantHops {
				t.Fatalf("hops = %d, want %d", res.Path.Len(), tc.wantHops)
			}
			if res.Path.Len() > tc.maxHops {
				t.Fatalf("path uses %d hops, bound was %d", res.Path.Len(), tc.maxHops)
			}
			if res.Path.Len() > 0 {
				if err := res.Path.Validate(tc.nw, tc.s, tc.t); err != nil {
					t.Fatalf("path invalid: %v", err)
				}
				if got := res.Path.Cost(tc.nw); got != res.Cost {
					t.Fatalf("path prices %v, result says %v", got, res.Cost)
				}
			}
		})
	}
}

// pathKey serializes a semilightpath for duplicate detection.
func pathKey(p *wdm.Semilightpath) string {
	key := ""
	for _, h := range p.Hops {
		key += fmt.Sprintf("%d@%d;", h.Link, h.Wavelength)
	}
	return key
}

// TestKShortestNoDuplicates: Yen's spur searches can regenerate a path
// already accepted (or already queued as a candidate) from a different
// spur node; the enumeration must suppress those so the result list is
// duplicate-free even when count far exceeds the number of distinct
// semilightpaths.
func TestKShortestNoDuplicates(t *testing.T) {
	// Diamond with parallel wavelengths: 0→{1,2}→3 with 2 wavelengths per
	// link yields many same-cost candidates — prime territory for spur
	// collisions.
	nw := wdm.NewNetwork(4, 2)
	for _, uv := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		if _, err := nw.AddLink(uv[0], uv[1], []wdm.Channel{
			{Lambda: 0, Weight: 1},
			{Lambda: 1, Weight: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	// With no converters a path keeps one lambda end to end, so there are
	// exactly 2 sides × 2 lambdas = 4 distinct semilightpaths, all cost 2.
	paths, err := a.KShortest(0, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, p := range paths {
		k := pathKey(p.Path)
		if seen[k] {
			t.Fatalf("path %d (%s) duplicates an earlier result", i, k)
		}
		seen[k] = true
		if err := p.Path.Validate(nw, 0, 3); err != nil {
			t.Fatalf("path %d invalid: %v", i, err)
		}
		if i > 0 && p.Cost < paths[i-1].Cost {
			t.Fatalf("costs out of order at %d: %v after %v", i, p.Cost, paths[i-1].Cost)
		}
	}
	if len(paths) != 4 {
		t.Fatalf("got %d distinct paths, want 4", len(paths))
	}
	for _, p := range paths {
		if p.Cost != 2 {
			t.Fatalf("diamond path cost %v, want 2", p.Cost)
		}
	}
}

// TestKShortestCountOneMatchesRoute: asking for a single path must
// reproduce Route's optimum exactly, path and price.
func TestKShortestCountOneMatchesRoute(t *testing.T) {
	nw := tieNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	best, err := a.Route(0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	one, err := a.KShortest(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Cost != best.Cost {
		t.Fatalf("KShortest(1) cost %v, Route cost %v", one[0].Cost, best.Cost)
	}
}
