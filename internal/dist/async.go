package dist

import (
	"container/heap"
	"fmt"
	"math/rand"

	"lightpath/internal/wdm"
)

// This file implements the asynchronous execution model — the ablation
// counterpart to the synchronous Runtime. Messages experience
// independent random link delays instead of lockstep rounds; the
// "time" of a run is the virtual time of the last delivery, and
// termination is global quiescence (an empty event queue — the
// simulator's omniscient stand-in for a diffusing-computation
// termination detector such as Dijkstra–Scholten, whose control
// messages we do not count).
//
// Bellman–Ford-style relaxation stays correct under arbitrary message
// reordering; what changes is the message *count*: stale labels can
// overtake fresh ones, triggering re-announcements. Comparing
// AsyncStats.Messages with the synchronous Stats.Messages on the same
// instance quantifies that price.

// AsyncStats aggregates an asynchronous run.
type AsyncStats struct {
	Messages    int     // labels sent over physical links
	VirtualTime float64 // delivery time of the last message
	MaxQueue    int     // peak in-flight messages
}

// asyncEvent is one in-flight message.
type asyncEvent struct {
	at   float64
	seq  int64 // FIFO tiebreak for determinism
	wire int
	msg  distMsg
}

type asyncQueue []asyncEvent

func (q asyncQueue) Len() int { return len(q) }
func (q asyncQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q asyncQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *asyncQueue) Push(x interface{}) { *q = append(*q, x.(asyncEvent)) }
func (q *asyncQueue) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// AsyncOptions tunes the asynchronous model.
type AsyncOptions struct {
	// Seed drives the per-message delay randomness.
	Seed int64
	// MinDelay/MaxDelay bound the uniform per-message link delay.
	// Zero values default to [0.5, 1.5].
	MinDelay, MaxDelay float64
	// MaxMessages aborts runaway executions; 0 defaults to
	// 1000 × (number of physical channels).
	MaxMessages int
	// DupProb injects at-least-once delivery faults: each sent message
	// is additionally delivered a second time (with an independent
	// delay) with this probability. Label relaxation is idempotent
	// (min-merge), so results must not change — the fault-injection
	// tests pin that property.
	DupProb float64
}

func (o *AsyncOptions) delays() (float64, float64) {
	if o == nil || (o.MinDelay == 0 && o.MaxDelay == 0) {
		return 0.5, 1.5
	}
	return o.MinDelay, o.MaxDelay
}

func (o *AsyncOptions) seed() int64 {
	if o == nil {
		return 1
	}
	return o.Seed
}

// RouteAsync runs the distributed semilightpath algorithm under the
// asynchronous model and returns the same optimal result as Route,
// with asynchronous statistics.
func RouteAsync(nw *wdm.Network, s, t int, opts *AsyncOptions) (*Result, AsyncStats, error) {
	var astats AsyncStats
	if res, err := checkPair(nw, s, t); res != nil || err != nil {
		return res, astats, err
	}

	prog := buildProgram(nw, s)
	rng := rand.New(rand.NewSource(opts.seed()))
	minD, maxD := opts.delays()
	maxMessages := 0
	if opts != nil {
		maxMessages = opts.MaxMessages
	}
	if maxMessages <= 0 {
		maxMessages = 1000 * (nw.TotalChannels() + 1)
	}

	var (
		q    asyncQueue
		seq  int64
		now  float64
		sent int
	)
	heap.Init(&q)
	dupProb := 0.0
	if opts != nil {
		dupProb = opts.DupProb
	}
	emit := func(from int, wire int, msg distMsg) {
		l := nw.Link(wire)
		if l.From != from {
			panic(fmt.Sprintf("dist: node %d sent on foreign wire %d", from, wire))
		}
		copies := 1
		if dupProb > 0 && rng.Float64() < dupProb {
			copies = 2 // at-least-once fault: a spurious duplicate
		}
		for c := 0; c < copies; c++ {
			seq++
			sent++
			heap.Push(&q, asyncEvent{
				at:   now + minD + rng.Float64()*(maxD-minD),
				seq:  seq,
				wire: wire,
				msg:  msg,
			})
		}
	}

	// Seed the source exactly like the synchronous Init.
	srcState := prog.states[s]
	for yi := range srcState.y {
		srcState.y[yi] = label{dist: 0, parent: -1, seeded: true}
	}
	srcState.announce(func(wire int, msg distMsg) { emit(s, wire, msg) })

	for q.Len() > 0 {
		if sent > maxMessages {
			return nil, astats, fmt.Errorf("%w: %d messages", ErrNoQuiescence, sent)
		}
		if q.Len() > astats.MaxQueue {
			astats.MaxQueue = q.Len()
		}
		ev := heap.Pop(&q).(asyncEvent)
		now = ev.at
		node := nw.Link(ev.wire).To
		prog.Step(node, 0, []Delivery[distMsg]{{Wire: ev.wire, Msg: ev.msg}},
			func(wire int, msg distMsg) { emit(node, wire, msg) })
	}
	astats.Messages = sent
	astats.VirtualTime = now

	path, cost, err := extractPath(nw, prog, s, t)
	if err != nil {
		return nil, astats, err
	}
	return &Result{Path: path, Cost: cost}, astats, nil
}
