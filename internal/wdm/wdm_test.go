package wdm

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func chans(pairs ...float64) []Channel {
	// pairs alternates lambda, weight
	cs := make([]Channel, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		cs = append(cs, Channel{Lambda: Wavelength(pairs[i]), Weight: pairs[i+1]})
	}
	return cs
}

func TestNewNetwork(t *testing.T) {
	nw := NewNetwork(5, 3)
	if nw.NumNodes() != 5 || nw.K() != 3 || nw.NumLinks() != 0 {
		t.Fatalf("got n=%d k=%d m=%d", nw.NumNodes(), nw.K(), nw.NumLinks())
	}
	if nw.Converter() != nil {
		t.Fatal("new network should have nil converter")
	}
}

func TestAddLink(t *testing.T) {
	nw := NewNetwork(3, 4)
	id, err := nw.AddLink(0, 1, chans(0, 1.5, 2, 3.5))
	if err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if id != 0 {
		t.Fatalf("first link id = %d, want 0", id)
	}
	l := nw.Link(id)
	if l.From != 0 || l.To != 1 || len(l.Channels) != 2 {
		t.Fatalf("link = %+v", l)
	}
	if w, ok := l.Has(2); !ok || w != 3.5 {
		t.Fatalf("Has(2) = %v,%v", w, ok)
	}
	if _, ok := l.Has(1); ok {
		t.Fatal("λ1 should be unavailable")
	}
	if len(nw.Out(0)) != 1 || len(nw.In(1)) != 1 {
		t.Fatal("adjacency lists not updated")
	}
}

func TestAddLinkErrors(t *testing.T) {
	nw := NewNetwork(2, 2)
	if _, err := nw.AddLink(0, 5, nil); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad node: %v", err)
	}
	if _, err := nw.AddLink(0, 1, chans(7, 1)); !errors.Is(err, ErrWavelengthRange) {
		t.Fatalf("bad wavelength: %v", err)
	}
	if _, err := nw.AddLink(0, 1, chans(0, -2)); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("negative weight: %v", err)
	}
	if _, err := nw.AddLink(0, 1, []Channel{{Lambda: 0, Weight: 1}, {Lambda: 0, Weight: 2}}); err == nil {
		t.Fatal("duplicate wavelength on link should error")
	}
	// Infinite weight channels are dropped silently (λ ∉ Λ(e)).
	id, err := nw.AddLink(0, 1, []Channel{{Lambda: 0, Weight: math.Inf(1)}, {Lambda: 1, Weight: 2}})
	if err != nil {
		t.Fatalf("inf channel: %v", err)
	}
	if len(nw.Link(id).Channels) != 1 {
		t.Fatal("inf channel should be dropped")
	}
}

func TestDegreesAndCounts(t *testing.T) {
	nw := NewNetwork(4, 3)
	mustLink(t, nw, 0, 1, chans(0, 1, 1, 1))
	mustLink(t, nw, 0, 2, chans(2, 1))
	mustLink(t, nw, 1, 2, chans(0, 1, 1, 1, 2, 1))
	mustLink(t, nw, 3, 0, chans(1, 1))
	if d := nw.MaxDegree(); d != 2 {
		t.Fatalf("MaxDegree = %d, want 2", d)
	}
	if k0 := nw.MaxChannelsPerLink(); k0 != 3 {
		t.Fatalf("MaxChannelsPerLink = %d, want 3", k0)
	}
	if tc := nw.TotalChannels(); tc != 7 {
		t.Fatalf("TotalChannels = %d, want 7", tc)
	}
	if nw.OutDegree(0) != 2 || len(nw.In(2)) != 2 || len(nw.In(0)) != 1 {
		t.Fatal("degree accessors wrong")
	}
}

func TestLambdaInOut(t *testing.T) {
	nw := NewNetwork(3, 4)
	mustLink(t, nw, 0, 1, chans(0, 1, 2, 1))
	mustLink(t, nw, 2, 1, chans(2, 1, 3, 1))
	mustLink(t, nw, 1, 0, chans(1, 1))
	in := nw.LambdaIn(1)
	if len(in) != 3 || in[0] != 0 || in[1] != 2 || in[2] != 3 {
		t.Fatalf("LambdaIn(1) = %v, want [0 2 3]", in)
	}
	out := nw.LambdaOut(1)
	if len(out) != 1 || out[0] != 1 {
		t.Fatalf("LambdaOut(1) = %v, want [1]", out)
	}
	if got := nw.LambdaIn(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("LambdaIn(0) = %v", got)
	}
	if got := nw.LambdaOut(2); len(got) != 2 {
		t.Fatalf("LambdaOut(2) = %v", got)
	}
}

// TestAppendLambdaUnion: the append form leaves dst's prefix alone and
// appends the ascending, duplicate-free union of the incident channels,
// for wavelengths on both sides of 64 listed in any order, and the
// nil-dst wrappers return the same sets.
func TestAppendLambdaUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, k := range []int{8, 64, 100, 1 << 17} {
		nw := NewNetwork(6, k)
		for l := 0; l < 24; l++ {
			var cs []Channel // four distinct wavelengths, unordered
			for len(cs) < 4 {
				lam := Wavelength(rng.Intn(k))
				if !slices.ContainsFunc(cs, func(c Channel) bool { return c.Lambda == lam }) {
					cs = append(cs, Channel{Lambda: lam, Weight: 1})
				}
			}
			mustLink(t, nw, rng.Intn(6), rng.Intn(6), cs)
		}
		for v := 0; v < nw.NumNodes(); v++ {
			for side, links := range [][]int32{nw.In(v), nw.Out(v)} {
				var want []Wavelength
				for _, id := range links {
					for _, c := range nw.Link(int(id)).Channels {
						want = append(want, c.Lambda)
					}
				}
				slices.Sort(want)
				want = slices.Compact(want)
				prefix := []Wavelength{99, 3}
				got := nw.AppendLambdaIn(slices.Clone(prefix), v)
				plain := nw.LambdaIn(v)
				if side == 1 {
					got, plain = nw.AppendLambdaOut(slices.Clone(prefix), v), nw.LambdaOut(v)
				}
				if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) || !slices.Equal(plain, want) {
					t.Fatalf("k=%d node %d side %d: appended %v, plain %v, want %v after %v", k, v, side, got, plain, want, prefix)
				}
			}
		}
	}
}

func TestMinLinkWeight(t *testing.T) {
	nw := NewNetwork(2, 2)
	if !math.IsInf(nw.MinLinkWeight(), 1) {
		t.Fatal("empty network min weight should be +Inf")
	}
	mustLink(t, nw, 0, 1, chans(0, 5, 1, 3))
	mustLink(t, nw, 1, 0, chans(0, 7))
	if got := nw.MinLinkWeight(); got != 3 {
		t.Fatalf("MinLinkWeight = %v, want 3", got)
	}
}

func mustLink(t *testing.T, nw *Network, u, v int, cs []Channel) int {
	t.Helper()
	id, err := nw.AddLink(u, v, cs)
	if err != nil {
		t.Fatalf("AddLink(%d,%d): %v", u, v, err)
	}
	return id
}
