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
	// and the only mode where Options.Queue can name an ablation queue
	// (A* is the binary-heap engine under a potential).
	DirectedPlain DirectedMode = iota

	// DirectedAStar runs A* — the plain search's binary-heap engine, Y
	// shore passed through, keyed on dist + potential — on the auxiliary
	// graph under a potential read
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
