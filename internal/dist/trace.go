package dist

import (
	"errors"
	"fmt"
	"io"

	"lightpath/internal/wdm"
)

// Trace records the per-round progress of a synchronous execution, for
// debugging distributed programs and for visualizing convergence. Attach
// one to a Runtime via its Trace field before Run.
type Trace struct {
	// Rounds[i] describes one barrier phase; entry 0 is the init phase.
	Rounds []RoundTrace
}

// RoundTrace is one round's activity.
type RoundTrace struct {
	Round       int // -1 for the init phase
	Messages    int // messages sent during this phase
	ActiveNodes int // nodes that received at least one message this phase
}

// Fprint renders the trace as a convergence profile.
func (tr *Trace) Fprint(w io.Writer) {
	fmt.Fprintf(w, "  %-6s %-9s %-12s\n", "round", "messages", "active nodes")
	for _, r := range tr.Rounds {
		label := fmt.Sprintf("%d", r.Round)
		if r.Round < 0 {
			label = "init"
		}
		fmt.Fprintf(w, "  %-6s %-9d %-12d\n", label, r.Messages, r.ActiveNodes)
	}
}

// RouteWithTrace runs the synchronous distributed algorithm recording a
// per-round convergence trace alongside the usual result. The trace comes
// back with a result, and with ErrNoRoute when the run found no path.
func RouteWithTrace(nw *wdm.Network, s, t int) (*Result, *Trace, error) {
	trace := &Trace{}
	res, err := route(nw, s, t, trace, nil)
	if err != nil && !errors.Is(err, ErrNoRoute) {
		return nil, nil, err
	}
	return res, trace, err
}
