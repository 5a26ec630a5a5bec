// Package dist implements the paper's Section III-B: distributed optimal
// semilightpath routing on the control network.
//
// Two layers live here:
//
//   - Runtime — a synchronous message-passing simulator: synchronous
//     rounds, stepped in node order. Messages travel only over the
//     physical directed links of the network, and a message sent in one
//     round is delivered at the next (the synchronous model the paper's
//     O(kn)-time / O(km)-message claims of Theorem 3 are stated in). The
//     runtime counts exactly what the theorems bound: messages crossing
//     physical links and rounds to quiescence. Computation inside a node
//     — i.e. inside its gadget fragment of G_{s,t} — is local and free,
//     matching "the communication costs on these links are negligible".
//
//   - The semilightpath program (sssp.go) — each node holds its own
//     bipartite fragment G_v of the embedded auxiliary graph G_{s,t} and
//     runs distributed Bellman–Ford relaxation over it, one message per
//     improved (link, wavelength) label.
package dist

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Errors returned by the runtime.
var (
	// ErrNoQuiescence is returned when the round cap is hit before the
	// computation converges.
	ErrNoQuiescence = errors.New("dist: no quiescence within round budget")
	// ErrNodeRange is returned for out-of-range endpoints.
	ErrNodeRange = errors.New("dist: node out of range")
	// ErrNilNetwork is returned for a nil network.
	ErrNilNetwork = errors.New("dist: nil network")
	// ErrNoRoute is returned when the destination is unreachable.
	ErrNoRoute = errors.New("dist: no semilightpath exists")
)

// Wire identifies a directed physical channel the runtime can carry
// messages over: From → To. Wires are the network's links; their IDs
// must be dense 0..W-1.
type Wire struct {
	From, To int
}

// Delivery is a message as seen by its receiver: the wire it arrived on
// plus the payload.
type Delivery[M any] struct {
	Wire int
	Msg  M
}

// Send is handed to node programs for emitting messages. Sending on a
// wire whose From is not the calling node panics — a program bug, not a
// runtime condition.
type Send[M any] func(wire int, msg M)

// Program is the per-node behaviour. Implementations must be
// self-contained per node: a node learns of others only through its
// inbox. Init and Step never run concurrently — the runtime steps nodes
// one at a time, in node order — and an inbox is valid only during its
// Step: the runtime reuses its storage for a later round.
type Program[M any] interface {
	// Init runs once before round 0 and may send seed messages.
	Init(node int, send Send[M])
	// Step runs once per round with the messages delivered this round
	// (sent during the previous round), sorted by wire ID — in send
	// order within a wire — for determinism. It may send messages for
	// delivery next round.
	Step(node, round int, inbox []Delivery[M], send Send[M])
}

// Stats aggregates what the distributed complexity theorems talk about.
type Stats struct {
	Rounds       int // rounds until global quiescence (the "time" of Theorem 3)
	Messages     int // total messages over physical wires (the "communication")
	MaxWireLoad  int // max messages carried by any single wire
	MaxNodeInbox int // max messages any node received in one round
}

// Runtime executes a Program over a set of nodes and wires in
// synchronous rounds, stepped in node order, until quiescence (a round
// in which no messages are in flight). Each round steps nodes 0…n−1 on
// the caller's goroutine, appending every send to its destination's
// next-round inbox; the round's end is the barrier.
type Runtime[M any] struct {
	numNodes int
	wires    []Wire
	prog     Program[M]
	// MaxRounds caps execution; 0 defaults to 4·numNodes + 16, well above
	// the O(n) rounds synchronous Bellman–Ford needs.
	MaxRounds int
	// Trace, when non-nil, accumulates per-round activity.
	Trace *Trace
}

// NewRuntime validates the wire list and returns a runtime.
func NewRuntime[M any](numNodes int, wires []Wire, prog Program[M]) (*Runtime[M], error) {
	for i, w := range wires {
		if w.From < 0 || w.From >= numNodes || w.To < 0 || w.To >= numNodes {
			return nil, fmt.Errorf("%w: wire %d (%d->%d) with %d nodes", ErrNodeRange, i, w.From, w.To, numNodes)
		}
	}
	return &Runtime[M]{numNodes: numNodes, wires: wires, prog: prog}, nil
}

// Run executes rounds until quiescence and returns the stats.
func (r *Runtime[M]) Run() (Stats, error) {
	maxRounds := r.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 4*r.numNodes + 16
	}

	var stats Stats
	wireLoad := make([]int, len(r.wires))
	// cur holds the inboxes being stepped, next the ones filling for the
	// following round; the two swap at each barrier and keep their
	// capacity, so a round allocates only when an inbox outgrows it.
	cur := make([][]Delivery[M], r.numNodes)
	next := make([][]Delivery[M], r.numNodes)
	node, sent := 0, 0
	send := func(wire int, msg M) {
		if wire < 0 || wire >= len(r.wires) || r.wires[wire].From != node {
			panic(fmt.Sprintf("dist: node %d sent on foreign wire %d", node, wire))
		}
		dst := r.wires[wire].To
		next[dst] = append(next[dst], Delivery[M]{Wire: wire, Msg: msg})
		wireLoad[wire]++
		sent++
	}
	// barrier ends a phase: it sorts every next-round inbox by wire for
	// deterministic Step behaviour, records the phase and reports whether
	// any message is in flight.
	barrier := func(round, active int) bool {
		for _, box := range next {
			slices.SortStableFunc(box, func(a, b Delivery[M]) int { return cmp.Compare(a.Wire, b.Wire) })
		}
		stats.Messages += sent
		if r.Trace != nil {
			r.Trace.Rounds = append(r.Trace.Rounds, RoundTrace{Round: round, Messages: sent, ActiveNodes: active})
		}
		inFlight := sent > 0
		sent = 0
		cur, next = next, cur
		return inFlight
	}

	for node = 0; node < r.numNodes; node++ {
		r.prog.Init(node, send)
	}
	inFlight := barrier(-1, 0)
	for round := 0; inFlight; round++ {
		if round >= maxRounds {
			return stats, fmt.Errorf("%w: %d rounds", ErrNoQuiescence, round)
		}
		stats.Rounds++
		active := 0
		for node = 0; node < r.numNodes; node++ {
			inbox := cur[node]
			if len(inbox) > 0 {
				active++
			}
			stats.MaxNodeInbox = max(stats.MaxNodeInbox, len(inbox))
			r.prog.Step(node, round, inbox, send)
			cur[node] = inbox[:0]
		}
		inFlight = barrier(round, active)
	}
	for _, l := range wireLoad {
		stats.MaxWireLoad = max(stats.MaxWireLoad, l)
	}
	return stats, nil
}
