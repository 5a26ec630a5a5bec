package wdm

import (
	"errors"
	"math"
	"testing"
)

func patchNet(t *testing.T) *Network {
	t.Helper()
	nw := NewNetwork(3, 4)
	mustAdd := func(u, v int, cs []Channel) {
		t.Helper()
		if _, err := nw.AddLink(u, v, cs); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 1, chans(0, 1, 1, 2, 2, 3))
	mustAdd(1, 2, chans(0, 1, 3, 4))
	mustAdd(2, 0, chans(1, 5))
	nw.SetConverter(UniformConversion{C: 0.5})
	return nw
}

func TestPatchChannelsReplacesOnlyListed(t *testing.T) {
	nw := patchNet(t)
	p, err := nw.PatchChannels(map[int][]Channel{0: chans(1, 2)})
	if err != nil {
		t.Fatalf("PatchChannels: %v", err)
	}
	if p.NumNodes() != 3 || p.K() != 4 || p.NumLinks() != 3 {
		t.Fatalf("shape changed: n=%d k=%d m=%d", p.NumNodes(), p.K(), p.NumLinks())
	}
	if got := p.Link(0).Channels; len(got) != 1 || got[0].Lambda != 1 || got[0].Weight != 2 {
		t.Fatalf("patched link 0 channels = %v", got)
	}
	// The original is untouched.
	if got := nw.Link(0).Channels; len(got) != 3 {
		t.Fatalf("original link 0 mutated: %v", got)
	}
	// Untouched links share their Channel backing with the original —
	// the structural-sharing contract the O(m) bound relies on.
	if &p.Link(1).Channels[0] != &nw.Link(1).Channels[0] {
		t.Fatal("untouched link 1 does not share its Channels slice")
	}
	// Adjacency and metadata carry over.
	if len(p.Out(0)) != 1 || len(p.In(0)) != 1 || p.Converter() == nil {
		t.Fatal("adjacency or converter not carried over")
	}
	for id := 0; id < 3; id++ {
		l, pl := nw.Link(id), p.Link(id)
		if l.ID != pl.ID || l.From != pl.From || l.To != pl.To {
			t.Fatalf("link %d identity changed: %+v vs %+v", id, l, pl)
		}
	}
}

func TestPatchChannelsValidatesLikeAddLink(t *testing.T) {
	nw := patchNet(t)
	if _, err := nw.PatchChannels(map[int][]Channel{7: nil}); err == nil {
		t.Fatal("unknown link accepted")
	}
	if _, err := nw.PatchChannels(map[int][]Channel{0: chans(9, 1)}); !errors.Is(err, ErrWavelengthRange) {
		t.Fatalf("bad wavelength: %v", err)
	}
	if _, err := nw.PatchChannels(map[int][]Channel{0: chans(0, -1)}); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("negative weight: %v", err)
	}
	if _, err := nw.PatchChannels(map[int][]Channel{0: chans(0, 1, 0, 2)}); err == nil {
		t.Fatal("duplicate wavelength accepted")
	}
	// Infinite weight means λ ∉ Λ(e): dropped, not stored.
	p, err := nw.PatchChannels(map[int][]Channel{0: chans(0, 1, 1, math.Inf(1))})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Link(0).Channels; len(got) != 1 || got[0].Lambda != 0 {
		t.Fatalf("infinite channel kept: %v", got)
	}
}

func TestPatchChannelsSealsResult(t *testing.T) {
	nw := patchNet(t)
	p, err := nw.PatchChannels(map[int][]Channel{1: nil})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddLink(0, 2, chans(0, 1)); !errors.Is(err, ErrSealed) {
		t.Fatalf("AddLink on sealed network: %v", err)
	}
	// The source network stays growable.
	if _, err := nw.AddLink(0, 2, chans(0, 1)); err != nil {
		t.Fatalf("AddLink on source: %v", err)
	}
	// Patching a patch works (chains of residual epochs).
	pp, err := p.PatchChannels(map[int][]Channel{1: chans(3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if got := pp.Link(1).Channels; len(got) != 1 || got[0].Lambda != 3 {
		t.Fatalf("second patch = %v", got)
	}
	if got := p.Link(1).Channels; len(got) != 0 {
		t.Fatalf("first patch mutated by second: %v", got)
	}
}

func TestPatchChannelsEmptyIsIdentity(t *testing.T) {
	nw := patchNet(t)
	p, err := nw.PatchChannels(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalChannels() != nw.TotalChannels() {
		t.Fatalf("channel count changed: %d vs %d", p.TotalChannels(), nw.TotalChannels())
	}
	for id := 0; id < nw.NumLinks(); id++ {
		if len(p.Link(id).Channels) > 0 && &p.Link(id).Channels[0] != &nw.Link(id).Channels[0] {
			t.Fatalf("link %d not shared", id)
		}
	}
}

// ringNet builds a ring of m links over m nodes, k=4, link i carrying
// wavelengths 0..i%4.
func ringNet(t *testing.T, m int) *Network {
	t.Helper()
	nw := NewNetwork(m, 4)
	for i := 0; i < m; i++ {
		var cs []Channel
		for l := 0; l <= i%4; l++ {
			cs = append(cs, Channel{Lambda: Wavelength(l), Weight: float64(i + l)})
		}
		if _, err := nw.AddLink(i, (i+1)%m, cs); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

// linksOf deep-copies the link table through Link(id).
func linksOf(nw *Network) []Link {
	out := make([]Link, nw.NumLinks())
	for id := range out {
		out[id] = *nw.Link(id)
		out[id].Channels = append([]Channel(nil), out[id].Channels...)
	}
	return out
}

func mustHaveLinks(t *testing.T, what string, nw *Network, want []Link) {
	t.Helper()
	flat := nw.Links()
	if nw.NumLinks() != len(want) || len(flat) != len(want) {
		t.Fatalf("%s: NumLinks %d, Links() %d, want %d", what, nw.NumLinks(), len(flat), len(want))
	}
	total := 0
	for id, w := range want {
		for _, l := range []Link{*nw.Link(id), flat[id]} {
			if l.ID != w.ID || l.From != w.From || l.To != w.To || len(l.Channels) != len(w.Channels) {
				t.Fatalf("%s: link %d = %+v, want %+v", what, id, l, w)
			}
			for i := range w.Channels {
				if l.Channels[i] != w.Channels[i] {
					t.Fatalf("%s: link %d channel %d = %+v, want %+v", what, id, i, l.Channels[i], w.Channels[i])
				}
			}
		}
		total += len(w.Channels)
	}
	if nw.TotalChannels() != total {
		t.Fatalf("%s: TotalChannels %d, links hold %d", what, nw.TotalChannels(), total)
	}
}

// TestPatchAcrossLinkPageEdges patches the first and the last link — and
// both of one page in one call — of networks whose link count sits one
// short of a page, on it and one past it, then patches the patch: every
// ancestor keeps its table, the carried Σ|Λ(e)| stays a recount, untouched
// pages are shared and a sealed patch still refuses AddLink.
func TestPatchAcrossLinkPageEdges(t *testing.T) {
	for _, m := range []int{linkPageSize - 1, linkPageSize, linkPageSize + 1, 2*linkPageSize - 1, 2 * linkPageSize, 2*linkPageSize + 1} {
		nw := ringNet(t, m)
		base := linksOf(nw)
		mustHaveLinks(t, "built", nw, base)

		p, err := nw.PatchChannels(map[int][]Channel{0: nil, 1: chans(0, 9), m - 1: chans(0, 7, 3, 8)})
		if err != nil {
			t.Fatal(err)
		}
		want := linksOf(nw)
		want[0].Channels, want[1].Channels, want[m-1].Channels = nil, chans(0, 9), chans(0, 7, 3, 8)
		mustHaveLinks(t, "patch", p, want)
		mustHaveLinks(t, "source after patch", nw, base)
		if m > 2*linkPageSize && p.pages[1] != nw.pages[1] {
			t.Fatalf("m=%d: untouched page 1 was copied", m)
		}
		if p.pages[0] == nw.pages[0] {
			t.Fatalf("m=%d: patched page 0 still shared", m)
		}

		pp, err := p.PatchChannels(map[int][]Channel{m - 1: nil, 0: base[0].Channels})
		if err != nil {
			t.Fatal(err)
		}
		want2 := linksOf(p)
		want2[m-1].Channels, want2[0].Channels = nil, base[0].Channels
		mustHaveLinks(t, "patch of patch", pp, want2)
		mustHaveLinks(t, "first patch after second", p, want)
		mustHaveLinks(t, "source after second patch", nw, base)

		if _, err := pp.AddLink(0, 1, nil); !errors.Is(err, ErrSealed) {
			t.Fatalf("m=%d: AddLink on a patch of a patch: %v", m, err)
		}
		if !pp.SameTopology(nw) || !nw.SameTopology(p) || !p.SameTopology(pp) {
			t.Fatalf("m=%d: a patch chain is not one topology", m)
		}
		if ringNet(t, m).SameTopology(nw) {
			t.Fatalf("m=%d: a separately built network claims the same topology", m)
		}
		// A rejected patch leaves nothing behind.
		if _, err := p.PatchChannels(map[int][]Channel{0: chans(0, 1), m: nil}); err == nil {
			t.Fatalf("m=%d: patch of link %d accepted", m, m)
		}
		mustHaveLinks(t, "patch after rejected patch", p, want)
	}
}

// TestSameTopologyAfterGrowth: growing the source ends the identity with
// the patches taken before.
func TestSameTopologyAfterGrowth(t *testing.T) {
	nw := patchNet(t)
	p, err := nw.PatchChannels(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.SameTopology(nw) {
		t.Fatal("fresh patch differs from its source")
	}
	if _, err := nw.AddLink(0, 2, chans(0, 1)); err != nil {
		t.Fatal(err)
	}
	if p.SameTopology(nw) {
		t.Fatal("patch still claims the grown source's topology")
	}
	if NewNetwork(0, 1).SameTopology(NewNetwork(0, 1)) {
		t.Fatal("empty networks claim a shared topology")
	}
}
