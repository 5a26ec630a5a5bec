package topo

import (
	"fmt"

	"lightpath/internal/wdm"
)

// This file reconstructs the worked example of the paper's Figs. 1–4:
// the 7-node directed network with Λ = {λ1..λ4} whose per-link
// availability sets are listed in Sec. III-A.
//
// One reconciliation: the paper lists Λ(⟨2,7⟩) = {λ1,λ2,λ3} but then
// states Λ_out(G_M, 2) = {λ1,λ2,λ4}; those are mutually inconsistent
// (the union with Λ(⟨2,3⟩) = {λ1,λ4} would contain λ3). Every one of the
// other 13 Λ_in/Λ_out sets the paper lists is consistent with
// Λ(⟨2,7⟩) = {λ1,λ2}, so we take the λ3 in the link listing to be a typo
// and use {λ1,λ2}. TestPaperExampleShores verifies all 14 sets.

// Paper example dimensions.
const (
	PaperExampleNodes       = 7
	PaperExampleWavelengths = 4
)

// paperLinks holds the Fig. 1 links in paper numbering: from, to are
// 1-based node names; lambdas are 1-based wavelength names.
var paperLinks = []struct {
	from, to int
	lambdas  []int
}{
	{1, 2, []int{1, 3}},
	{1, 4, []int{1, 2, 4}},
	{2, 3, []int{1, 4}},
	{2, 7, []int{1, 2}}, // see the reconciliation note above
	{3, 1, []int{2, 3}},
	{3, 7, []int{3, 4}},
	{4, 5, []int{3}},
	{5, 3, []int{2, 4}},
	{5, 6, []int{1, 3}},
	{6, 4, []int{2, 3}},
	{6, 7, []int{2, 3, 4}},
}

// PaperExampleSpec parameterizes the costs of the example network, which
// the paper's figures leave unspecified.
type PaperExampleSpec struct {
	// LinkWeight is w(e,λ) for every available channel.
	LinkWeight float64
	// ConvCost is c_v(λp,λq) for every permitted conversion.
	ConvCost float64
	// ForbidNode3Lambda2To3 reproduces the Fig. 3 remark that "the
	// wavelength conversion from λ2 to λ3 at node 3 is not allowed".
	ForbidNode3Lambda2To3 bool
}

// DefaultPaperExampleSpec mirrors the restrictions' intent: conversion
// strictly cheaper than any link (Restriction 2), with the single
// forbidden pair of Fig. 3.
func DefaultPaperExampleSpec() PaperExampleSpec {
	return PaperExampleSpec{LinkWeight: 10, ConvCost: 1, ForbidNode3Lambda2To3: true}
}

// PaperExample builds the Fig. 1 network. Paper node i becomes node i−1;
// paper wavelength λj becomes Wavelength(j−1).
func PaperExample(spec PaperExampleSpec) (*wdm.Network, error) {
	nw := wdm.NewNetwork(PaperExampleNodes, PaperExampleWavelengths)
	for _, l := range paperLinks {
		channels := make([]wdm.Channel, 0, len(l.lambdas))
		for _, lam := range l.lambdas {
			channels = append(channels, wdm.Channel{
				Lambda: wdm.Wavelength(lam - 1),
				Weight: spec.LinkWeight,
			})
		}
		if _, err := nw.AddLink(l.from-1, l.to-1, channels); err != nil {
			return nil, fmt.Errorf("topo: paper example link %d->%d: %w", l.from, l.to, err)
		}
	}

	// Conversion: fully general table over the wavelengths that actually
	// meet at each node, minus the Fig. 3 forbidden pair.
	tab := wdm.NewTableConversion()
	for v := 0; v < PaperExampleNodes; v++ {
		for _, p := range nw.LambdaIn(v) {
			for _, q := range nw.LambdaOut(v) {
				if p == q {
					continue
				}
				// Paper node 3 is our node 2; λ2→λ3 is Wavelength 1→2.
				if spec.ForbidNode3Lambda2To3 && v == 2 && p == 1 && q == 2 {
					continue
				}
				tab.Set(v, p, q, spec.ConvCost)
			}
		}
	}
	nw.SetConverter(tab)
	return nw, nil
}
