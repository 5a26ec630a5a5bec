package core

import (
	"errors"
	"math/rand"
	"testing"

	"lightpath/internal/graph"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

func TestRouteProtectedOnRing(t *testing.T) {
	// A ring always has exactly two link-disjoint routes between any
	// pair: clockwise and counterclockwise.
	rng := rand.New(rand.NewSource(1))
	tp := topo.Ring(8)
	nw, err := workload.Build(tp, workload.RestrictedSpec(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := a.RouteProtected(0, 4, nil)
	if err != nil {
		t.Fatalf("RouteProtected: %v", err)
	}
	if err := pair.Primary.Path.Validate(nw, 0, 4); err != nil {
		t.Fatalf("primary invalid: %v", err)
	}
	if err := pair.Backup.Path.Validate(nw, 0, 4); err != nil {
		t.Fatalf("backup invalid: %v", err)
	}
	if !LinkDisjoint(pair.Primary.Path, pair.Backup.Path) {
		t.Fatal("paths share a link")
	}
	if pair.Primary.Cost > pair.Backup.Cost {
		t.Fatalf("primary (%v) should be the cheaper of the pair (backup %v)",
			pair.Primary.Cost, pair.Backup.Cost)
	}
	if pair.TotalCost() != pair.Primary.Cost+pair.Backup.Cost {
		t.Fatal("TotalCost arithmetic wrong")
	}
}

func TestRouteProtectedNoBackupOnLine(t *testing.T) {
	// A line has a single route: the backup must fail with ErrNoBackup.
	rng := rand.New(rand.NewSource(2))
	tp := topo.Line(5)
	nw, err := workload.Build(tp, workload.RestrictedSpec(2), rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RouteProtected(0, 4, nil); !errors.Is(err, ErrNoBackup) {
		t.Fatalf("line backup: %v, want ErrNoBackup", err)
	}
}

func TestRouteProtectedTrivial(t *testing.T) {
	nw := paperNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := a.RouteProtected(3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pair.TotalCost() != 0 {
		t.Fatalf("trivial pair cost = %v", pair.TotalCost())
	}
	if _, err := a.RouteProtected(6, 0, nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unreachable primary: %v", err)
	}
}

func TestRouteProtectedRandomDisjointness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		tp := topo.RandomSparse(10+rng.Intn(15), 4, 6, rng)
		nw, err := workload.Build(tp, workload.RestrictedSpec(4), rng)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewAux(nw)
		if err != nil {
			t.Fatal(err)
		}
		s, d := rng.Intn(tp.N), rng.Intn(tp.N)
		pair, err := a.RouteProtected(s, d, nil)
		if err != nil {
			continue // no pair exists; fine
		}
		if s == d {
			continue
		}
		if !LinkDisjoint(pair.Primary.Path, pair.Backup.Path) {
			t.Fatalf("trial %d: pair not disjoint", trial)
		}
		// Backup hop list must be valid against the ORIGINAL network.
		if err := pair.Backup.Path.Validate(nw, s, d); err != nil {
			t.Fatalf("trial %d: backup invalid on original network: %v", trial, err)
		}
	}
}

func TestLinkDisjoint(t *testing.T) {
	a := &wdm.Semilightpath{Hops: []wdm.Hop{{Link: 1}, {Link: 2}}}
	b := &wdm.Semilightpath{Hops: []wdm.Hop{{Link: 3}, {Link: 4}}}
	c := &wdm.Semilightpath{Hops: []wdm.Hop{{Link: 2}, {Link: 5}}}
	if !LinkDisjoint(a, b) {
		t.Fatal("a,b are disjoint")
	}
	if LinkDisjoint(a, c) {
		t.Fatal("a,c share link 2")
	}
}

// trapNet is the classical trap topology: the optimal primary uses links
// that every disjoint pair needs, so plain two-step protection fails even
// though a link-disjoint pair exists.
func trapNet(t *testing.T) *wdm.Network {
	t.Helper()
	nw := wdm.NewNetwork(4, 1)
	const (
		s = 0
		u = 1
		v = 2
		d = 3
	)
	links := []struct {
		from, to int
		w        float64
	}{
		{s, u, 1}, {u, v, 1}, {v, d, 1}, // the cheap chain (the trap)
		{s, v, 10}, {u, d, 10}, // the expensive detours
	}
	for _, l := range links {
		if _, err := nw.AddLink(l.from, l.to, []wdm.Channel{{Lambda: 0, Weight: l.w}}); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

func TestRouteProtectedTrapTopology(t *testing.T) {
	nw := trapNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	// Plain two-step falls into the trap.
	if _, err := a.RouteProtected(0, 3, nil); !errors.Is(err, ErrNoBackup) {
		t.Fatalf("plain two-step should trap: %v", err)
	}
	// The anti-trap retry escapes it.
	pair, err := a.RouteProtected(0, 3, &ProtectOptions{PrimaryCandidates: 3})
	if err != nil {
		t.Fatalf("anti-trap retry: %v", err)
	}
	if !LinkDisjoint(pair.Primary.Path, pair.Backup.Path) {
		t.Fatal("pair not disjoint")
	}
	if pair.TotalCost() != 22 {
		t.Fatalf("total = %v, want 22 (11 + 11)", pair.TotalCost())
	}
}

func TestProtectOptionsDefaults(t *testing.T) {
	var o *ProtectOptions
	if o.candidates() != 1 || o.route() != nil {
		t.Fatal("nil options defaults wrong")
	}
	o2 := &ProtectOptions{PrimaryCandidates: 0}
	if o2.candidates() != 1 {
		t.Fatal("candidate floor should be 1")
	}
}

// servedOpts is what the engine runs a query with, bound rows aside: A*
// on the bucket queue (wdmserve's defaults).
var servedOpts = &Options{Directed: DirectedAStar, Queue: graph.QueueBucket}

// stripAndCompile is the backup's reference: a fresh copy of nw with the
// primary's links stripped of every channel (IDs stay aligned), compiled
// from scratch and routed without lent rows.
func stripAndCompile(t *testing.T, nw *wdm.Network, primary *wdm.Semilightpath, s, d int, opts *Options) (*Result, error) {
	t.Helper()
	exclude := make(map[int]bool, primary.Len())
	for _, h := range primary.Hops {
		exclude[h.Link] = true
	}
	out := wdm.NewNetwork(nw.NumNodes(), nw.K())
	for _, l := range nw.Links() {
		channels := l.Channels
		if exclude[l.ID] {
			channels = nil
		}
		if _, err := out.AddLink(l.From, l.To, channels); err != nil {
			t.Fatal(err)
		}
	}
	out.SetConverter(nw.Converter())
	a, err := NewAux(out)
	if err != nil {
		t.Fatal(err)
	}
	var ro Options
	if opts != nil {
		ro = *opts
		ro.Bound = nil
	}
	return a.Route(s, d, &ro)
}

// TestRouteProtectedMatchesStripAndCompile: on random networks × pairs,
// under the paper's search and the served one, with one primary and
// with the anti-trap retry, every backup is link-disjoint from its
// primary, valid on the original network and as cheap as routing on a
// fresh compile of the network stripped of the primary's links; and a
// pair refused for want of a backup has no candidate primary that
// reference would back up.
func TestRouteProtectedMatchesStripAndCompile(t *testing.T) {
	refused := 0
	for conv, spec := range directedConvs {
		// Sparse channels: a link free on no wavelength is cut, so some
		// pairs have a primary and no backup.
		spec.K, spec.AvailProb = 4, 0.35
		t.Run(conv, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3940))
			pairs := 0
			for trial := 0; trial < 10; trial++ {
				tp := topo.RandomSparse(8+rng.Intn(12), 3, 4, rng)
				nw, err := workload.Build(tp, spec, rng)
				if err != nil {
					t.Fatal(err)
				}
				a := mustAux(t, nw)
				for q := 0; q < 6; q++ {
					s, d := rng.Intn(tp.N), rng.Intn(tp.N)
					if s == d {
						continue
					}
					for _, ro := range []*Options{nil, servedOpts} {
						for _, candidates := range []int{1, 3} {
							pair, err := a.RouteProtected(s, d, &ProtectOptions{Route: ro, PrimaryCandidates: candidates})
							switch {
							case errors.Is(err, ErrNoBackup):
								refused++
								primaries, kerr := a.KShortest(s, d, candidates)
								if kerr != nil {
									t.Fatal(kerr)
								}
								for _, p := range primaries {
									if ref, rerr := stripAndCompile(t, nw, p.Path, s, d, ro); !errors.Is(rerr, ErrNoRoute) {
										t.Fatalf("trial %d %d→%d: refused, but the reference backs up a primary: %v, %v", trial, s, d, ref, rerr)
									}
								}
								continue
							case errors.Is(err, ErrNoRoute):
								continue
							case err != nil:
								t.Fatal(err)
							}
							pairs++
							if !LinkDisjoint(pair.Primary.Path, pair.Backup.Path) {
								t.Fatalf("trial %d %d→%d: pair shares a link", trial, s, d)
							}
							if err := pair.Backup.Path.Validate(nw, s, d); err != nil {
								t.Fatalf("trial %d %d→%d: backup invalid on the original network: %v", trial, s, d, err)
							}
							ref, err := stripAndCompile(t, nw, pair.Primary.Path, s, d, ro)
							if err != nil {
								t.Fatalf("trial %d %d→%d: reference: %v", trial, s, d, err)
							}
							if !costsAgree(pair.Backup.Cost, ref.Cost) {
								t.Fatalf("trial %d %d→%d: backup %v, strip-and-compile %v", trial, s, d, pair.Backup.Cost, ref.Cost)
							}
						}
					}
				}
			}
			if pairs == 0 {
				t.Fatal("no pair found: the fixtures test nothing")
			}
		})
	}
	if refused == 0 {
		t.Fatal("no pair refused: the fixtures never reach ErrNoBackup")
	}
}

// TestRouteProtectedAllocations pins what one served protect allocates
// at n=300 (astar on the bucket queue, as the engine runs it): the
// backup is a delta child of the compiled graph, not a compile.
func TestRouteProtectedAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(300*100 + 6))
	nw, err := workload.Build(topo.RandomSparse(300, 4, 5, rng), workload.RestrictedSpec(6), rng)
	if err != nil {
		t.Fatal(err)
	}
	a := mustAux(t, nw)
	po := &ProtectOptions{Route: servedOpts}
	if _, err := a.RouteProtected(0, 150, po); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := a.RouteProtected(0, 150, po); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("%.0f allocs per protect, want ≤ 64", allocs)
	}
}
