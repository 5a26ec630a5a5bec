package dist

import (
	"math/rand"

	"lightpath/internal/wdm"
)

// This file configures the asynchronous execution model — the ablation
// counterpart to the synchronous rounds. Messages experience
// independent random link delays instead of lockstep rounds; the
// "time" of a run is the virtual time of the last delivery, and
// termination is global quiescence (an empty queue — the simulator's
// omniscient stand-in for a diffusing-computation termination detector
// such as Dijkstra–Scholten, whose control messages we do not count).
// The Runtime's one delivery loop runs it: only the delays differ.
//
// Bellman–Ford-style relaxation stays correct under arbitrary message
// reordering; what changes is the message *count*: stale labels can
// overtake fresh ones, triggering re-announcements. Comparing the
// asynchronous Stats.Messages with the synchronous one on the same
// instance quantifies that price.

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

// asyncModel is the Runtime's hook for the asynchronous model: seeded
// per-send delays and duplication faults, and the message cap.
type asyncModel struct {
	rng                 *rand.Rand
	minD, maxD, dupProb float64
	maxMessages         int
}

func (o *AsyncOptions) model(nw *wdm.Network) *asyncModel {
	m := &asyncModel{rng: rand.New(rand.NewSource(o.seed()))}
	m.minD, m.maxD = o.delays()
	if o != nil {
		m.dupProb, m.maxMessages = o.DupProb, o.MaxMessages
	}
	if m.maxMessages <= 0 {
		m.maxMessages = 1000 * (nw.TotalChannels() + 1)
	}
	return m
}

// delays appends the delays of one send's copies to buf: one copy, or
// two under a duplication fault. It draws the fault first, then one
// delay per copy.
func (m *asyncModel) delays(buf []float64) []float64 {
	copies := 1
	if m.dupProb > 0 && m.rng.Float64() < m.dupProb {
		copies = 2 // at-least-once fault: a spurious duplicate
	}
	for range copies {
		buf = append(buf, m.minD+m.rng.Float64()*(m.maxD-m.minD))
	}
	return buf
}

// RouteAsync runs the distributed semilightpath algorithm under the
// asynchronous model and returns the same optimal result as Route,
// with the asynchronous run's statistics.
func RouteAsync(nw *wdm.Network, s, t int, opts *AsyncOptions) (*Result, Stats, error) {
	if nw == nil {
		return nil, Stats{}, ErrNilNetwork
	}
	res, err := route(nw, s, t, nil, opts.model(nw))
	if err != nil {
		return nil, Stats{}, err
	}
	return res, res.Stats, nil
}
