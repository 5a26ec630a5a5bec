// Package wdm models the optical network of the reproduced paper's
// Section II: a directed graph G=(V,E) whose links carry sets of available
// wavelengths Λ(e) ⊆ Λ with per-wavelength traversal costs w(e,λ), and
// whose nodes carry wavelength-conversion cost functions c_v(λp,λq).
//
// The package also defines the Semilightpath type together with the cost
// function of the paper's Equation (1) and the two restrictions of
// Section III (used by Theorem 2's loop-freedom guarantee).
package wdm

import (
	"errors"
	"fmt"
	"math"
)

// Wavelength identifies one wavelength λ ∈ Λ as a 0-based index.
// The paper's λ_i corresponds to Wavelength(i-1).
type Wavelength int32

// Inf is the cost of an unavailable wavelength or forbidden conversion,
// matching the paper's convention of infinite weight.
var Inf = math.Inf(1)

// IsInf reports whether a weight or conversion cost is the Inf
// sentinel — "unavailable"/"forbidden", not a number. It and Finite are
// the only blessed ways to test against the sentinel (enforced by
// wdmlint's infcost analyzer).
func IsInf(w float64) bool { return math.IsInf(w, 1) }

// Finite reports whether a weight or conversion cost is a real value
// rather than the Inf sentinel.
func Finite(w float64) bool { return !math.IsInf(w, 1) }

// Errors returned by network construction and path validation.
var (
	// ErrNodeRange is returned for an out-of-range node ID.
	ErrNodeRange = errors.New("wdm: node out of range")
	// ErrWavelengthRange is returned for an out-of-range wavelength.
	ErrWavelengthRange = errors.New("wdm: wavelength out of range")
	// ErrBadWeight is returned for a negative or NaN link weight.
	ErrBadWeight = errors.New("wdm: link weight must be non-negative")
	// ErrEmptyPath is returned when validating a path with no hops.
	ErrEmptyPath = errors.New("wdm: empty semilightpath")
	// ErrDisconnected is returned when consecutive hops do not chain.
	ErrDisconnected = errors.New("wdm: semilightpath hops do not chain")
	// ErrUnavailable is returned when a hop uses a wavelength not in Λ(e).
	ErrUnavailable = errors.New("wdm: wavelength not available on link")
	// ErrNoConverter is returned when a network has no conversion function.
	ErrNoConverter = errors.New("wdm: network has no converter")
	// ErrWrongEndpoint is returned when a path does not start/end at s/t.
	ErrWrongEndpoint = errors.New("wdm: semilightpath endpoints mismatch")
)

// Channel is one (wavelength, cost) entry of a link's availability set.
type Channel struct {
	Lambda Wavelength `json:"lambda"`
	Weight float64    `json:"weight"`
}

// Link is a directed optical fiber ⟨From,To⟩ with its available
// wavelength set Λ(e) and per-wavelength costs w(e,λ).
type Link struct {
	ID       int       `json:"id"`
	From     int       `json:"from"`
	To       int       `json:"to"`
	Channels []Channel `json:"channels"`

	minW float64 // MinWeight, kept by setChannels
}

// MinWeight is min_{λ∈Λ(e)} w(e,λ), +Inf when Λ(e) is empty: the least
// any semilightpath pays to cross the link. It is current for links a
// Network holds (AddLink and PatchChannels maintain it).
func (l *Link) MinWeight() float64 { return l.minW }

// setChannels installs a validated channel set and its minimum.
func (l *Link) setChannels(channels []Channel) {
	l.Channels, l.minW = channels, Inf
	for _, c := range channels {
		l.minW = min(l.minW, c.Weight)
	}
}

// Has reports whether λ ∈ Λ(e) and returns its traversal cost.
func (l *Link) Has(lambda Wavelength) (float64, bool) {
	for _, c := range l.Channels {
		if c.Lambda == lambda {
			return c.Weight, true
		}
	}
	return Inf, false
}

// Converter is the wavelength-conversion cost function family
// {c_v(λp,λq)}. Implementations must return 0 when from == to and a
// non-negative cost (possibly Inf for "not supported") otherwise.
type Converter interface {
	// Cost returns c_node(from, to).
	Cost(node int, from, to Wavelength) float64
}

// The link table is a persistent paged array like graph.Digraph's spine:
// fixed pages of linkPageSize links behind a page table, so PatchChannels
// copies the table and the pages its links sit on rather than all m
// links. 16 links are 768 bytes.
const (
	linkPageShift = 4
	linkPageSize  = 1 << linkPageShift
	linkPageMask  = linkPageSize - 1
)

type linkPage [linkPageSize]Link

// Network is the WDM network G=(V,E) with wavelength set Λ = {0..K-1}.
// Construct with NewNetwork, then AddLink / SetConverter.
// A Network is immutable once built and safe for concurrent readers.
type Network struct {
	n        int
	k        int
	m        int         // |E|
	channels int         // Σ_e |Λ(e)|
	pages    []*linkPage // link id -> pages[id>>linkPageShift][id&linkPageMask]
	out      [][]int32   // link IDs leaving each node
	in       [][]int32   // link IDs entering each node
	conv     Converter

	// sealed marks a network produced by PatchChannels: its adjacency
	// spines and untouched link pages are shared with the network it was
	// patched from, so growing the link set would corrupt the parent.
	// AddLink refuses.
	sealed bool
}

// NewNetwork returns an empty network with n nodes and k wavelengths and
// no conversion capability (use SetConverter).
func NewNetwork(n, k int) *Network {
	return &Network{
		n:   n,
		k:   k,
		out: make([][]int32, n),
		in:  make([][]int32, n),
	}
}

// NumNodes reports n = |V|.
func (nw *Network) NumNodes() int { return nw.n }

// NumLinks reports m = |E|.
func (nw *Network) NumLinks() int { return nw.m }

// K reports k = |Λ|, the number of wavelengths in the network.
func (nw *Network) K() int { return nw.k }

// Converter returns the network's conversion cost function (may be nil).
func (nw *Network) Converter() Converter { return nw.conv }

// SetConverter installs the wavelength-conversion cost function.
func (nw *Network) SetConverter(c Converter) { nw.conv = c }

// ErrSealed is returned when growing a network built by PatchChannels.
var ErrSealed = errors.New("wdm: network is sealed (built by PatchChannels); links cannot be added")

// AddLink inserts a directed link from u to v with the given channels
// (Λ(e) entries) and returns its link ID. Channels with infinite weight
// are dropped — an infinite w(e,λ) means λ ∉ Λ(e).
func (nw *Network) AddLink(u, v int, channels []Channel) (int, error) {
	if nw.sealed {
		return 0, ErrSealed
	}
	if u < 0 || u >= nw.n || v < 0 || v >= nw.n {
		return 0, fmt.Errorf("%w: link %d->%d in network of %d nodes", ErrNodeRange, u, v, nw.n)
	}
	kept, err := nw.appendValid(make([]Channel, 0, len(channels)), channels)
	if err != nil {
		return 0, fmt.Errorf("link %d->%d: %w", u, v, err)
	}
	id := nw.m
	if id>>linkPageShift == len(nw.pages) {
		nw.pages = append(nw.pages, new(linkPage))
	}
	l := nw.Link(id)
	*l = Link{ID: id, From: u, To: v}
	l.setChannels(kept)
	nw.m++
	nw.channels += len(kept)
	nw.out[u] = append(nw.out[u], int32(id))
	nw.in[v] = append(nw.in[v], int32(id))
	return id, nil
}

// appendValid appends one link's channel set to dst as AddLink stores it:
// wavelengths in range, weights non-negative, no wavelength twice,
// infinite-weight channels dropped.
func (nw *Network) appendValid(dst, channels []Channel) ([]Channel, error) {
	start := len(dst)
	for _, c := range channels {
		if c.Lambda < 0 || int(c.Lambda) >= nw.k {
			return nil, fmt.Errorf("%w: λ%d with k=%d", ErrWavelengthRange, c.Lambda, nw.k)
		}
		if math.IsInf(c.Weight, 1) {
			continue
		}
		if c.Weight < 0 || math.IsNaN(c.Weight) {
			return nil, fmt.Errorf("%w: w(e,λ%d) = %v", ErrBadWeight, c.Lambda, c.Weight)
		}
		for _, prev := range dst[start:] {
			if prev.Lambda == c.Lambda {
				return nil, fmt.Errorf("wdm: duplicate wavelength λ%d", c.Lambda)
			}
		}
		dst = append(dst, c)
	}
	return dst, nil
}

// Link returns the link with the given ID.
func (nw *Network) Link(id int) *Link { return &nw.pages[id>>linkPageShift][id&linkPageMask] }

// Links returns all links in ID order, as a fresh slice (the Channels
// slices inside are the network's own and must not be modified).
func (nw *Network) Links() []Link {
	links := make([]Link, 0, nw.m)
	for _, p := range nw.pages {
		links = append(links, p[:min(linkPageSize, nw.m-len(links))]...)
	}
	return links
}

// SameTopology reports whether nw and other are one topology by
// construction: one of them was derived from the other, or both from a
// common ancestor, by PatchChannels alone, so nodes, wavelength count,
// link IDs and endpoints are identical without comparing them. False
// says nothing — two networks built separately may still be equal.
func (nw *Network) SameTopology(other *Network) bool {
	return nw.m == other.m && nw.n > 0 && other.n > 0 && &nw.out[0] == &other.out[0]
}

// Out returns the IDs of links leaving node v (E_out(G,v)).
func (nw *Network) Out(v int) []int32 { return nw.out[v] }

// In returns the IDs of links entering node v (E_in(G,v)).
func (nw *Network) In(v int) []int32 { return nw.in[v] }

// OutDegree reports d_out(G,v).
func (nw *Network) OutDegree(v int) int { return len(nw.out[v]) }

// InDegree reports d_in(G,v).
func (nw *Network) InDegree(v int) int { return len(nw.in[v]) }

// MaxDegree reports d = max over v of max(d_in(G,v), d_out(G,v)).
func (nw *Network) MaxDegree() int {
	d := 0
	for v := 0; v < nw.n; v++ {
		if len(nw.out[v]) > d {
			d = len(nw.out[v])
		}
		if len(nw.in[v]) > d {
			d = len(nw.in[v])
		}
	}
	return d
}

// MaxChannelsPerLink reports k0 = max over e of |Λ(e)|, the parameter of
// the restricted problem of Section IV.
func (nw *Network) MaxChannelsPerLink() int {
	k0 := 0
	for id := 0; id < nw.m; id++ {
		k0 = max(k0, len(nw.Link(id).Channels))
	}
	return k0
}

// TotalChannels reports Σ_e |Λ(e)| = |E_M|, the multigraph arc count.
func (nw *Network) TotalChannels() int { return nw.channels }

// LambdaIn returns Λ_in(G,v): the union of Λ(e) over incoming links,
// in ascending wavelength order.
func (nw *Network) LambdaIn(v int) []Wavelength {
	return nw.lambdaUnion(nw.in[v])
}

// LambdaOut returns Λ_out(G,v): the union of Λ(e) over outgoing links,
// in ascending wavelength order.
func (nw *Network) LambdaOut(v int) []Wavelength {
	return nw.lambdaUnion(nw.out[v])
}

func (nw *Network) lambdaUnion(linkIDs []int32) []Wavelength {
	present := make([]bool, nw.k)
	count := 0
	for _, id := range linkIDs {
		for _, c := range nw.Link(int(id)).Channels {
			if !present[c.Lambda] {
				present[c.Lambda] = true
				count++
			}
		}
	}
	res := make([]Wavelength, 0, count)
	for l, ok := range present {
		if ok {
			res = append(res, Wavelength(l))
		}
	}
	return res
}

// PatchChannels returns a copy of nw with the channel sets of the given
// links replaced, sharing everything untouched with nw: the topology
// (link IDs, endpoints, adjacency spines) is identical, unchanged links
// keep their Channel slices, and only the link pages holding a patched
// link are copied. This is the O(m/linkPageSize + Σ|patched Λ(e)|)
// residual-update primitive behind incremental snapshot maintenance — no
// per-channel occupancy filtering over the whole network, no adjacency
// reconstruction.
//
// Channel sets are validated exactly as AddLink validates them
// (wavelength range, non-negative finite weights, no duplicates;
// infinite-weight channels are dropped). The returned network is sealed:
// its adjacency is shared, so AddLink on it fails with ErrSealed.
func (nw *Network) PatchChannels(changes map[int][]Channel) (*Network, error) {
	p := *nw
	p.pages = append([]*linkPage(nil), nw.pages...)
	p.sealed = true
	total := 0
	for _, channels := range changes {
		total += len(channels)
	}
	// One arena holds every patched channel set, each at full capacity.
	arena := make([]Channel, 0, total)
	for id, channels := range changes {
		if id < 0 || id >= nw.m {
			return nil, fmt.Errorf("wdm: patch of unknown link %d (network has %d)", id, nw.m)
		}
		start := len(arena)
		var err error
		if arena, err = nw.appendValid(arena, channels); err != nil {
			return nil, fmt.Errorf("patch of link %d: %w", id, err)
		}
		pg := id >> linkPageShift
		if p.pages[pg] == nw.pages[pg] {
			cp := *nw.pages[pg]
			p.pages[pg] = &cp
		}
		l := p.Link(id)
		p.channels += len(arena) - start - len(l.Channels)
		l.setChannels(arena[start:len(arena):len(arena)])
	}
	return &p, nil
}

// MinLinkWeight reports min over e, λ∈Λ(e) of w(e,λ), or +Inf for a
// network with no channels. Used by Restriction 2.
func (nw *Network) MinLinkWeight() float64 {
	minW := Inf
	for id := 0; id < nw.m; id++ {
		for _, c := range nw.Link(id).Channels {
			if c.Weight < minW {
				minW = c.Weight
			}
		}
	}
	return minW
}
