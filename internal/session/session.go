// Package session implements the application the paper's introduction
// motivates: online circuit switching. A Manager admits connection
// requests by routing an optimal semilightpath over the *residual*
// capacity (the channels no active circuit holds), claims the chosen
// channels, and releases them at teardown. Blocking statistics fall out
// naturally, enabling the classic blocking-probability-vs-offered-load
// experiments of the WDM literature.
//
// Occupancy tracking and residual routing are delegated to
// internal/engine: the engine owns the (link, λ) claim table and keeps
// a compiled routing snapshot current across allocations and releases,
// so admission routes against a prebuilt auxiliary graph instead of
// recompiling one per request (the manager's original behaviour).
package session

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/obs"
	"lightpath/internal/wdm"
)

// Errors returned by the manager.
var (
	// ErrBlocked is returned when no semilightpath exists in the
	// residual network — the request is blocked.
	ErrBlocked = errors.New("session: request blocked")
	// ErrUnknownSession is returned when releasing an unknown ID.
	ErrUnknownSession = errors.New("session: unknown session")
	// ErrNilNetwork is returned for a nil base network.
	ErrNilNetwork = errors.New("session: nil network")
)

// ID identifies an admitted circuit.
type ID int64

// Circuit is one admitted connection holding its channels.
type Circuit struct {
	ID   ID
	From int
	To   int
	Path *wdm.Semilightpath
	Cost float64
}

// Stats counts the manager's admission outcomes.
type Stats struct {
	Admitted int
	Blocked  int
	Released int
}

// BlockingProbability is Blocked / (Admitted + Blocked), or 0 with no
// offered traffic.
func (s Stats) BlockingProbability() float64 {
	offered := s.Admitted + s.Blocked
	if offered == 0 {
		return 0
	}
	return float64(s.Blocked) / float64(offered)
}

// Manager admits and releases circuits. Channel occupancy lives in the
// embedded routing engine (circuit IDs double as engine owner IDs).
// Manager is safe for concurrent use: one mutex serializes its own
// bookkeeping (admission is check-then-claim, so the heuristic policies
// depend on the occupancy they just observed staying put). Read-only
// routing queries scale concurrently through Engine(), which never
// takes the manager's lock.
type Manager struct {
	mu      sync.Mutex // guards every field below; engine has its own locking
	base    *wdm.Network
	eng     *engine.Engine
	tele    sessionTelemetry
	active  map[ID]*Circuit
	nextID  ID
	stats   Stats
	maxHeld int
	rng     *rand.Rand // PolicyRandomFit's wavelength picker
	// pairedBackup maps a protected primary to its backup circuit so
	// releasing the primary cascades.
	pairedBackup map[ID]ID
}

// sessionTelemetry is the manager's slice of the engine's registry:
// admission outcomes and latency, registered alongside the engine's own
// metrics so one snapshot (and one /metrics endpoint) covers both
// layers. The instruments mirror Stats but are atomics, so a debug
// server can snapshot them while admissions run.
type sessionTelemetry struct {
	admitLatency *obs.Histogram // session_admit_latency_ns (all policies, blocked included)
	admitted     *obs.Counter   // session_admitted_total
	blocked      *obs.Counter   // session_blocked_total
	released     *obs.Counter   // session_released_total
	active       *obs.Gauge     // session_active_circuits
}

func newSessionTelemetry(reg *obs.Registry) sessionTelemetry {
	return sessionTelemetry{
		admitLatency: reg.Histogram("session_admit_latency_ns", obs.DefaultLatencyBuckets()),
		admitted:     reg.Counter("session_admitted_total"),
		blocked:      reg.Counter("session_blocked_total"),
		released:     reg.Counter("session_released_total"),
		active:       reg.Gauge("session_active_circuits"),
	}
}

// noteBlocked records one blocked admission in both the legacy Stats
// counter and the telemetry registry.
func (m *Manager) noteBlocked() {
	m.stats.Blocked++
	m.tele.blocked.Inc()
}

// noteReleased records one circuit teardown, however it happened
// (Release, backup cascade, or fiber-cut survival promotion).
func (m *Manager) noteReleased() {
	m.stats.Released++
	m.tele.released.Inc()
	m.tele.active.Add(-1)
}

// NewManager wraps the installed network nw. The manager never mutates
// nw; the engine tracks occupancy separately and routes over residual
// snapshots.
func NewManager(nw *wdm.Network) (*Manager, error) {
	if nw == nil {
		return nil, ErrNilNetwork
	}
	eng, err := engine.New(nw, nil)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return &Manager{
		base:   nw,
		eng:    eng,
		tele:   newSessionTelemetry(eng.Metrics()),
		active: make(map[ID]*Circuit),
	}, nil
}

// Engine exposes the underlying routing engine (for concurrent
// read-only queries, cache statistics, and batch routing).
func (m *Manager) Engine() *engine.Engine { return m.eng }

// Stats returns the admission counters so far.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ActiveCircuits reports the number of circuits currently holding
// channels.
func (m *Manager) ActiveCircuits() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// PeakActiveCircuits reports the maximum concurrently-active circuits
// observed.
func (m *Manager) PeakActiveCircuits() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maxHeld
}

// Utilization is the fraction of installed (link, wavelength) channels
// currently held by circuits.
func (m *Manager) Utilization() float64 { return m.eng.Utilization() }

// Residual returns the network of currently-free channels — the
// engine's current snapshot, maintained incrementally across
// allocations rather than rebuilt per call. Callers must not mutate it.
func (m *Manager) Residual() (*wdm.Network, error) {
	return m.eng.Snapshot().Network(), nil
}

// Admit routes a circuit from s to t over the residual capacity and, on
// success, claims its channels. A nil error means the circuit is active
// until Release.
func (m *Manager) Admit(s, t int) (*Circuit, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.admitOptimal(s, t)
}

// admitOptimal is Admit's body; callers hold m.mu.
func (m *Manager) admitOptimal(s, t int) (*Circuit, error) {
	start := time.Now()
	defer func() { m.tele.admitLatency.ObserveDuration(time.Since(start)) }()
	result, err := m.eng.RouteAndAllocate(int64(m.nextID+1), s, t)
	if errors.Is(err, core.ErrNoRoute) {
		m.noteBlocked()
		return nil, fmt.Errorf("%w: %d->%d", ErrBlocked, s, t)
	}
	if err != nil {
		return nil, err
	}
	m.nextID++
	c := &Circuit{ID: m.nextID, From: s, To: t, Path: result.Path, Cost: result.Cost}
	m.register(c)
	return c, nil
}

// register books an admitted circuit whose channels the engine already
// holds under int64(c.ID).
func (m *Manager) register(c *Circuit) {
	m.active[c.ID] = c
	m.stats.Admitted++
	m.tele.admitted.Inc()
	m.tele.active.Add(1)
	if len(m.active) > m.maxHeld {
		m.maxHeld = len(m.active)
	}
}

// Release tears the circuit down, freeing its channels. Releasing a
// protected primary (see AdmitProtected) also releases its backup.
func (m *Manager) Release(id ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.releaseLocked(id)
}

// releaseLocked is Release's body; callers hold m.mu (FailLink's
// teardown cascade reuses it under its own critical section).
func (m *Manager) releaseLocked(id ID) error {
	_, ok := m.active[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	m.releasePaired(id)
	if err := m.eng.Release(int64(id)); err != nil {
		return fmt.Errorf("session: release %d: %w", id, err)
	}
	delete(m.active, id)
	m.noteReleased()
	return nil
}

// HolderOf reports which circuit holds the given channel, if any.
func (m *Manager) HolderOf(link int, lam wdm.Wavelength) (ID, bool) {
	owner, ok := m.eng.HolderOf(link, lam)
	return ID(owner), ok
}
