package wdm

import (
	"fmt"
	"strconv"
)

// Hop is one step of a semilightpath: traverse Link using Wavelength.
type Hop struct {
	Link       int        `json:"link"`
	Wavelength Wavelength `json:"lambda"`
}

// Conversion records a wavelength switch performed at an intermediate
// node of a semilightpath.
type Conversion struct {
	Node int        `json:"node"`
	From Wavelength `json:"from"`
	To   Wavelength `json:"to"`
	Cost float64    `json:"cost"`
}

// Semilightpath is a transmission path e_1..e_l with a wavelength chosen
// per link (Section II). A lightpath is the special case with zero
// wavelength conversions.
type Semilightpath struct {
	Hops []Hop `json:"hops"`
}

// Len reports the number of links on the path.
func (p *Semilightpath) Len() int { return len(p.Hops) }

// Source returns the tail of the first link; meaningful only for a
// validated, non-empty path.
func (p *Semilightpath) Source(nw *Network) int {
	return nw.Link(p.Hops[0].Link).From
}

// Dest returns the head of the last link; meaningful only for a
// validated, non-empty path.
func (p *Semilightpath) Dest(nw *Network) int {
	return nw.Link(p.Hops[len(p.Hops)-1].Link).To
}

// Nodes returns the node sequence visited, of length Len()+1.
func (p *Semilightpath) Nodes(nw *Network) []int {
	if len(p.Hops) == 0 {
		return nil
	}
	nodes := make([]int, 0, len(p.Hops)+1)
	nodes = append(nodes, nw.Link(p.Hops[0].Link).From)
	for _, h := range p.Hops {
		nodes = append(nodes, nw.Link(h.Link).To)
	}
	return nodes
}

// Conversions lists every wavelength switch the path performs, in order.
// Cost fields are filled from the network's converter.
func (p *Semilightpath) Conversions(nw *Network) []Conversion {
	var convs []Conversion
	for i := 1; i < len(p.Hops); i++ {
		prev, cur := p.Hops[i-1], p.Hops[i]
		if prev.Wavelength == cur.Wavelength {
			continue
		}
		node := nw.Link(prev.Link).To
		cost := Inf
		if nw.conv != nil {
			cost = nw.conv.Cost(node, prev.Wavelength, cur.Wavelength)
		}
		convs = append(convs, Conversion{
			Node: node,
			From: prev.Wavelength,
			To:   cur.Wavelength,
			Cost: cost,
		})
	}
	return convs
}

// IsLightpath reports whether the path uses a single wavelength
// throughout (no conversions), i.e. is a lightpath in the paper's sense.
func (p *Semilightpath) IsLightpath() bool {
	for i := 1; i < len(p.Hops); i++ {
		if p.Hops[i].Wavelength != p.Hops[0].Wavelength {
			return false
		}
	}
	return true
}

// RevisitsNode reports whether any intermediate/terminal node appears
// more than once on the path — the Fig. 5 situation Theorem 2 rules out
// under Restrictions 1 and 2.
func (p *Semilightpath) RevisitsNode(nw *Network) bool {
	seen := make(map[int]bool, len(p.Hops)+1)
	for _, v := range p.Nodes(nw) {
		if seen[v] {
			return true
		}
		seen[v] = true
	}
	return false
}

// Cost evaluates Equation (1): the sum of link traversal costs plus the
// sum of conversion costs at intermediate nodes. An invalid hop
// (unavailable wavelength or forbidden conversion) yields +Inf.
func (p *Semilightpath) Cost(nw *Network) float64 {
	if len(p.Hops) == 0 {
		return 0
	}
	total := 0.0
	for i, h := range p.Hops {
		w, ok := nw.Link(h.Link).Has(h.Wavelength)
		if !ok {
			return Inf
		}
		total += w
		if i == 0 {
			continue
		}
		prev := p.Hops[i-1]
		if prev.Wavelength == h.Wavelength {
			continue
		}
		if nw.conv == nil {
			return Inf
		}
		c := nw.conv.Cost(nw.Link(prev.Link).To, prev.Wavelength, h.Wavelength)
		if c < 0 {
			return Inf
		}
		total += c
	}
	return total
}

// Validate checks that the path is a well-formed semilightpath from s to
// t in nw: hops chain head-to-tail, every wavelength is available on its
// link, and every wavelength switch is a permitted conversion.
func (p *Semilightpath) Validate(nw *Network, s, t int) error {
	if len(p.Hops) == 0 {
		return ErrEmptyPath
	}
	for i, h := range p.Hops {
		if h.Link < 0 || h.Link >= nw.NumLinks() {
			return fmt.Errorf("wdm: hop %d references unknown link %d", i, h.Link)
		}
		link := nw.Link(h.Link)
		if _, ok := link.Has(h.Wavelength); !ok {
			return fmt.Errorf("%w: λ%d on link %d (%d->%d)", ErrUnavailable, h.Wavelength, h.Link, link.From, link.To)
		}
		if i == 0 {
			continue
		}
		prev := nw.Link(p.Hops[i-1].Link)
		if prev.To != link.From {
			return fmt.Errorf("%w: hop %d ends at %d, hop %d starts at %d", ErrDisconnected, i-1, prev.To, i, link.From)
		}
		if p.Hops[i-1].Wavelength != h.Wavelength {
			if nw.conv == nil {
				return ErrNoConverter
			}
			c := nw.conv.Cost(prev.To, p.Hops[i-1].Wavelength, h.Wavelength)
			if IsInf(c) {
				return fmt.Errorf("wdm: conversion λ%d->λ%d at node %d not permitted",
					p.Hops[i-1].Wavelength, h.Wavelength, prev.To)
			}
		}
	}
	if got := p.Source(nw); got != s {
		return fmt.Errorf("%w: starts at %d, want %d", ErrWrongEndpoint, got, s)
	}
	if got := p.Dest(nw); got != t {
		return fmt.Errorf("%w: ends at %d, want %d", ErrWrongEndpoint, got, t)
	}
	return nil
}

// String renders the path as "s -[λi]-> v -[λj]-> ... t" for logs and
// example programs.
func (p *Semilightpath) String(nw *Network) string {
	return string(p.AppendText(nil, nw))
}

// AppendText appends the String rendering to dst and returns the
// extended slice: the form reply encoders use to render into a reused
// buffer.
func (p *Semilightpath) AppendText(dst []byte, nw *Network) []byte {
	if len(p.Hops) == 0 {
		return append(dst, "(empty)"...)
	}
	dst = strconv.AppendInt(dst, int64(p.Source(nw)), 10)
	for _, h := range p.Hops {
		dst = append(dst, " -[λ"...)
		dst = strconv.AppendInt(dst, int64(h.Wavelength+1), 10)
		dst = append(dst, "]-> "...)
		dst = strconv.AppendInt(dst, int64(nw.Link(h.Link).To), 10)
	}
	return dst
}
