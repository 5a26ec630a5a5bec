// Package dist implements the paper's Section III-B: distributed optimal
// semilightpath routing on the control network.
//
// Two layers live here:
//
//   - Runtime — a message-passing simulator with one delivery loop over
//     a queue of in-flight messages ordered by delivery time. Messages
//     travel only over the physical directed links of the network. The
//     synchronous model is every send delayed by exactly 1: a message
//     sent in one round is delivered at the next, and each round steps
//     its nodes in node order (the model the paper's O(kn)-time /
//     O(km)-message claims of Theorem 3 are stated in). The asynchronous
//     ablation (async.go) is the same loop with seeded random delays.
//     The runtime counts exactly what the theorems bound: messages
//     crossing physical links and rounds to quiescence. Computation
//     inside a node — i.e. inside its gadget fragment of G_{s,t} — is
//     local and free, matching "the communication costs on these links
//     are negligible".
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
	"math/bits"
	"slices"
	"sort"
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
// Step: the runtime reuses its storage for a later delivery time.
type Program[M any] interface {
	// Init runs once before the first delivery and may send seed
	// messages.
	Init(node int, send Send[M])
	// Step runs for a node with a non-empty inbox: the messages due at
	// one delivery time, sorted by wire ID — in send order within a wire
	// — for determinism. round is the index of that delivery time (under
	// the synchronous model, the round). It may send further messages.
	Step(node, round int, inbox []Delivery[M], send Send[M])
}

// Stats aggregates what the distributed complexity theorems talk about.
type Stats struct {
	Rounds       int     // delivery times until global quiescence (the "time" of Theorem 3)
	Messages     int     // total messages over physical wires (the "communication")
	MaxWireLoad  int     // max messages carried by any single wire
	MaxNodeInbox int     // max messages any node received at one delivery time
	VirtualTime  float64 // delivery time of the last message: Rounds under the synchronous model
	MaxInFlight  int     // peak messages in flight
}

// Runtime executes a Program over a set of nodes and wires until
// quiescence: no message in flight. It keeps one queue of in-flight
// messages, ordered by delivery time and, at equal times, by send order.
// At each distinct time it hands every node its due messages as one
// inbox and steps those nodes in node order, on the caller's goroutine.
// Under the synchronous model every send is delivered exactly 1 later,
// so each delivery time is a round; RouteAsync runs the same loop with
// seeded random delays.
type Runtime[M any] struct {
	numNodes int
	wires    []Wire
	prog     Program[M]
	// MaxRounds caps the rounds of a synchronous run; 0 defaults to
	// 4·numNodes + 16. A semilightpath run sets it from the network to
	// Σ_v |Λ_in(v)| + 1 ≤ kn + 1, Theorem 3's own time bound. Costs are
	// non-negative, so each label's optimum is reached by a simple path
	// in G_{s,t}, and each physical hop of it enters a distinct X-node
	// (v, λ): at most Σ_v |Λ_in(v)| hops. Round r delivers the labels of
	// paths of r+1 hops, so every label is final after round
	// Σ_v |Λ_in(v)| − 1; the next round delivers only announcements that
	// improve nothing, and sends nothing.
	MaxRounds int
	// Trace, when non-nil, accumulates per-round activity.
	Trace *Trace
	// async, when non-nil, replaces the synchronous delay of 1 with its
	// seeded per-send delays and duplicates, and caps the messages sent
	// instead of the rounds.
	async *asyncModel
}

// inFlight is a queued message and its delivery time.
type inFlight[M any] struct {
	at float64
	Delivery[M]
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

// Run delivers messages until quiescence and returns the stats.
func (r *Runtime[M]) Run() (Stats, error) {
	maxRounds := r.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 4*r.numNodes + 16
	}

	var (
		stats  Stats
		queue  []inFlight[M] // by delivery time, then send order
		delays []float64
		now    float64
	)
	wireLoad := make([]int, len(r.wires))
	// inboxes keep their capacity across delivery times, so a step
	// allocates only when an inbox outgrows it; due marks the nodes with
	// a non-empty inbox, one bit each, and is read in node order.
	inboxes := make([][]Delivery[M], r.numNodes)
	due := make([]uint64, (r.numNodes+63)/64)
	node, sent := 0, 0
	send := func(wire int, msg M) {
		if wire < 0 || wire >= len(r.wires) || r.wires[wire].From != node {
			panic(fmt.Sprintf("dist: node %d sent on foreign wire %d", node, wire))
		}
		if r.async == nil {
			delays = append(delays[:0], 1)
		} else {
			delays = r.async.delays(delays[:0])
		}
		for _, d := range delays {
			m := inFlight[M]{at: now + d, Delivery: Delivery[M]{Wire: wire, Msg: msg}}
			// After every message due no later: under a constant delay
			// that is the end of the queue.
			if n := len(queue); n == 0 || queue[n-1].at <= m.at {
				queue = append(queue, m)
			} else {
				queue = slices.Insert(queue, sort.Search(n, func(j int) bool { return queue[j].at > m.at }), m)
			}
		}
		wireLoad[wire] += len(delays)
		stats.MaxWireLoad = max(stats.MaxWireLoad, wireLoad[wire])
		sent += len(delays)
	}
	// record ends a phase: it counts and traces the phase's sends.
	record := func(round, active int) {
		stats.Messages += sent
		if r.Trace != nil {
			r.Trace.Rounds = append(r.Trace.Rounds, RoundTrace{Round: round, Messages: sent, ActiveNodes: active})
		}
		sent = 0
	}

	for node = 0; node < r.numNodes; node++ {
		r.prog.Init(node, send)
	}
	record(-1, 0)
	for round := 0; len(queue) > 0; round++ {
		switch {
		case r.async == nil && round >= maxRounds:
			return stats, fmt.Errorf("%w: %d rounds", ErrNoQuiescence, round)
		case r.async != nil && stats.Messages > r.async.maxMessages:
			return stats, fmt.Errorf("%w: %d messages", ErrNoQuiescence, stats.Messages)
		}
		stats.Rounds++
		stats.MaxInFlight = max(stats.MaxInFlight, len(queue))
		now = queue[0].at
		n, active := 0, 0
		for ; n < len(queue) && queue[n].at == now; n++ {
			m := &queue[n]
			dst := r.wires[m.Wire].To
			if len(inboxes[dst]) == 0 {
				due[dst/64] |= 1 << (dst % 64)
				active++
			}
			inboxes[dst] = append(inboxes[dst], m.Delivery)
		}
		queue = queue[:copy(queue, queue[n:])]
		for w := range due {
			for ; due[w] != 0; due[w] &= due[w] - 1 {
				node = w*64 + bits.TrailingZeros64(due[w])
				inbox := inboxes[node]
				slices.SortStableFunc(inbox, func(a, b Delivery[M]) int { return cmp.Compare(a.Wire, b.Wire) })
				stats.MaxNodeInbox = max(stats.MaxNodeInbox, len(inbox))
				r.prog.Step(node, round, inbox, send)
				inboxes[node] = inbox[:0]
			}
		}
		record(round, active)
	}
	stats.VirtualTime = now
	return stats, nil
}
