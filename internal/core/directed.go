package core

import "fmt"

// DirectedMode selects the search strategy for point-to-point queries
// (Aux.Route). Both modes return the same optimal cost; they differ only
// in how much of the auxiliary graph they settle proving it. Any other
// value is refused.
type DirectedMode uint8

const (
	// DirectedPlain is the paper's search: multi-seed Dijkstra from the
	// Y_s shore with goal-set early termination on X_t. The zero value,
	// and the only mode where Options.Queue selects the priority
	// structure (the goal-directed kernels are built on the binary heap).
	DirectedPlain DirectedMode = iota

	// DirectedAStar runs A* on the auxiliary graph under a potential read
	// off the physical network: a backward Dijkstra from t over the
	// snapshot's own residual links, each weighing its cheapest free
	// channel (bound.go) — or the same distances read from a row the
	// caller kept for that network (Options.Bound). Nothing is
	// precomputed or carried across epochs, and a destination the
	// physical network cannot connect to the source is refused before
	// the auxiliary graph is touched.
	DirectedAStar
)

// String names the mode for span attributes and flag parsing.
func (m DirectedMode) String() string {
	switch m {
	case DirectedPlain:
		return "plain"
	case DirectedAStar:
		return "astar"
	default:
		return fmt.Sprintf("DirectedMode(%d)", uint8(m))
	}
}
