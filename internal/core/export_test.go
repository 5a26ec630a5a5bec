package core

import (
	"fmt"

	"lightpath/internal/graph"
)

// Helpers for the external core_test package, which drives chains through
// internal/engine (an in-package test cannot import it) and still has to
// see the compiled graph.

// AuxDiff reports the first difference between two compiled graphs over
// one layout, arc for arc: identical node space, identical per-segment arc
// sequences (targets, weights, tags), identical derived counters.
func AuxDiff(got, want *Aux) error {
	if got.NumAuxNodes() != want.NumAuxNodes() {
		return fmt.Errorf("aux nodes: %d vs %d", got.NumAuxNodes(), want.NumAuxNodes())
	}
	if got.NumAuxArcs() != want.NumAuxArcs() {
		return fmt.Errorf("aux arcs: %d vs %d", got.NumAuxArcs(), want.NumAuxArcs())
	}
	for u := 0; u < got.NumAuxNodes(); u++ {
		ga, wa := got.g.Out(u), want.g.Out(u)
		if len(ga) != len(wa) {
			return fmt.Errorf("node %d out-degree: %d vs %d", u, len(ga), len(wa))
		}
		for i := range ga {
			if ga[i] != wa[i] {
				return fmt.Errorf("node %d arc %d: %+v vs %+v", u, i, ga[i], wa[i])
			}
		}
	}
	if got.Stats().OrgArcs != want.Stats().OrgArcs {
		return fmt.Errorf("OrgArcs: %d vs %d", got.Stats().OrgArcs, want.Stats().OrgArcs)
	}
	if got.Stats().MultigraphArc != want.Stats().MultigraphArc {
		return fmt.Errorf("MultigraphArc: %d vs %d", got.Stats().MultigraphArc, want.Stats().MultigraphArc)
	}
	return nil
}

// Graph returns the compiled auxiliary graph itself.
func Graph(a *Aux) *graph.Digraph { return a.g }
