package lightpath

// Online circuit switching, the application the paper's introduction
// motivates: a SessionManager admits connection requests by routing a
// semilightpath over the residual capacity (the channels no active
// circuit holds), claims its channels, and releases them at teardown.
// Blocking statistics fall out of it, so the classic blocking-probability
// versus offered-load experiments of the WDM literature run on it.
//
// The engine (internal/engine) is the only record of what is held: a
// circuit ID is an engine owner ID, the admitted and released counts are
// the engine's allocations and releases, and the active circuits are its
// owners. The manager adds admission policy on top.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/wdm"
)

// ErrBlocked reports an admission rejected for lack of capacity: no
// semilightpath (or, under a fixed-route policy, no continuous
// wavelength on the fixed route) exists in the residual network.
var ErrBlocked = errors.New("lightpath: request blocked")

// SessionID identifies an admitted circuit. It is the engine owner ID
// holding the circuit's channels.
type SessionID int64

// Circuit is an admitted connection holding its channels.
type Circuit struct {
	ID   SessionID
	From int
	To   int
	Path *Semilightpath
	Cost float64
}

// SessionStats counts admission outcomes.
type SessionStats struct {
	Admitted int
	Blocked  int
	Released int
}

// BlockingProbability is Blocked / (Admitted + Blocked), or 0 with no
// offered traffic.
func (s SessionStats) BlockingProbability() float64 {
	offered := s.Admitted + s.Blocked
	if offered == 0 {
		return 0
	}
	return float64(s.Blocked) / float64(offered)
}

// AdmissionPolicy selects the admission algorithm.
type AdmissionPolicy int

// Admission policies. PolicyOptimal routes an optimal semilightpath over
// the residual capacity (the paper's algorithm): conversion-aware and
// cost-optimal. The other four are the classical fixed-routing
// heuristics: the circuit follows the minimum-hop physical route and uses
// ONE wavelength end to end (no conversion), so they all block on
// wavelength continuity. They differ only in which free wavelength they
// pick, which shifts future blocking:
//
//	PolicyFirstFit   the lowest-indexed free wavelength (the standard
//	                 strawman the RWA literature compares against)
//	PolicyMostUsed   the busiest one, packing circuits and preserving
//	                 whole idle wavelengths (usually the best WA)
//	PolicyLeastUsed  the idlest one, spreading circuits (usually WORSE
//	                 blocking; kept as the counterexample)
//	PolicyRandomFit  a uniformly random free one (the null model)
const (
	PolicyOptimal AdmissionPolicy = iota + 1
	PolicyFirstFit
	PolicyMostUsed
	PolicyLeastUsed
	PolicyRandomFit
)

// policyNames is the one name table: String reads it, and wdmsim parses
// its -policy flag through String.
var policyNames = [...]string{
	PolicyOptimal:   "optimal",
	PolicyFirstFit:  "first-fit",
	PolicyMostUsed:  "most-used",
	PolicyLeastUsed: "least-used",
	PolicyRandomFit: "random-fit",
}

// String implements fmt.Stringer.
func (p AdmissionPolicy) String() string {
	if p >= PolicyOptimal && p <= PolicyRandomFit {
		return policyNames[p]
	}
	return fmt.Sprintf("AdmissionPolicy(%d)", int(p))
}

// SessionManager admits and releases circuits against live occupancy,
// which lives in its routing engine. It is safe for concurrent use: one
// mutex serializes admissions, releases and fiber cuts, so a fixed-route
// policy's check of the free channels and its claim of them are atomic.
type SessionManager struct {
	eng *engine.Engine

	mu      sync.Mutex // guards the fields below and serializes every engine mutation but RepairLink
	blocked int
	rng     *rand.Rand // PolicyRandomFit's wavelength picker, seeded 1
	// backup maps a protected primary to its backup, so releasing the
	// primary releases the backup too.
	backup map[SessionID]SessionID
}

// NewSessionManager wraps nw for online circuit admission. The manager
// never mutates nw; the engine tracks occupancy beside it and routes over
// residual snapshots.
func NewSessionManager(nw *Network) (*SessionManager, error) {
	eng, err := engine.New(nw, nil)
	if err != nil {
		return nil, fmt.Errorf("lightpath: %w", err)
	}
	return &SessionManager{
		eng:    eng,
		rng:    rand.New(rand.NewSource(1)),
		backup: make(map[SessionID]SessionID),
	}, nil
}

// Stats returns the admission counters so far.
func (m *SessionManager) Stats() SessionStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	es := m.eng.Stats()
	return SessionStats{Admitted: int(es.Allocations), Blocked: m.blocked, Released: int(es.Releases)}
}

// ActiveCircuits reports the number of circuits currently holding
// channels.
func (m *SessionManager) ActiveCircuits() int { return m.eng.Stats().ActiveOwners }

// Utilization is the fraction of installed (link, wavelength) channels
// currently held by circuits.
func (m *SessionManager) Utilization() float64 { return m.eng.Utilization() }

// Admit routes an optimal circuit from s to t over the residual capacity
// and, on success, claims its channels. A nil error means the circuit is
// active until Release.
func (m *SessionManager) Admit(s, t int) (*Circuit, error) {
	return m.AdmitPolicy(s, t, PolicyOptimal)
}

// AdmitPolicy admits a circuit with the chosen policy; the zero policy is
// PolicyOptimal. See Admit.
func (m *SessionManager) AdmitPolicy(s, t int, policy AdmissionPolicy) (*Circuit, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch policy {
	case 0, PolicyOptimal:
		id := m.eng.ReserveOwner()
		res, err := m.eng.RouteAndAllocate(id, s, t)
		if errors.Is(err, core.ErrNoRoute) {
			return nil, m.block(s, t, "")
		}
		if err != nil {
			return nil, err
		}
		return &Circuit{ID: SessionID(id), From: s, To: t, Path: res.Path, Cost: res.Cost}, nil
	case PolicyFirstFit, PolicyMostUsed, PolicyLeastUsed, PolicyRandomFit:
		return m.admitFixed(s, t, policy)
	default:
		return nil, fmt.Errorf("lightpath: unknown admission policy %d", int(policy))
	}
}

// block counts one blocked admission and returns its error, ending in
// why; callers hold m.mu.
func (m *SessionManager) block(s, t int, why string) error {
	m.blocked++
	return fmt.Errorf("%w: %d->%d%s", ErrBlocked, s, t, why)
}

// admitFixed is every fixed-route policy: the min-hop route over the
// installed, in-service topology (fixed routing ignores occupancy, which
// makes it cheap and blocking-prone), then one wavelength free on every
// link of it, chosen by the policy. Callers hold m.mu, so the snapshot's
// free channels stay free until the claim.
func (m *SessionManager) admitFixed(s, t int, policy AdmissionPolicy) (*Circuit, error) {
	route, ok := m.minHopRoute(s, t)
	if !ok {
		return nil, m.block(s, t, " (no physical route)")
	}
	if len(route) == 0 { // s == t: a circuit of no hops, as PolicyOptimal admits
		return m.claim(s, t, &wdm.Semilightpath{}, 0), nil
	}
	residual := m.eng.Snapshot().Network()
	var free []wdm.Wavelength // the wavelengths free on every link of the route, ascending
next:
	for _, ch := range residual.Link(route[0]).Channels {
		for _, link := range route[1:] {
			if _, ok := residual.Link(link).Has(ch.Lambda); !ok {
				continue next
			}
		}
		free = append(free, ch.Lambda)
	}
	slices.Sort(free)
	if len(free) == 0 {
		return nil, m.block(s, t, " (no continuous wavelength on the fixed route)")
	}
	lam := free[0] // PolicyFirstFit
	switch policy {
	case PolicyMostUsed, PolicyLeastUsed:
		usage, best := m.eng.HeldOn(free), 0
		for i := 1; i < len(free); i++ {
			if policy == PolicyMostUsed && usage[i] > usage[best] || policy == PolicyLeastUsed && usage[i] < usage[best] {
				best = i
			}
		}
		lam = free[best]
	case PolicyRandomFit:
		lam = free[m.rng.Intn(len(free))]
	}
	path := &wdm.Semilightpath{Hops: make([]wdm.Hop, len(route))}
	cost := 0.0
	for i, link := range route {
		path.Hops[i] = wdm.Hop{Link: link, Wavelength: lam}
		w, _ := residual.Link(link).Has(lam)
		cost += w
	}
	return m.claim(s, t, path, cost), nil
}

// minHopRoute finds the minimum-hop link sequence s→t over the installed
// links that are not failed.
func (m *SessionManager) minHopRoute(s, t int) ([]int, bool) {
	base := m.eng.Base()
	via := make([]int32, base.NumNodes()) // the link each visited node was reached by
	visited := make([]bool, base.NumNodes())
	visited[s] = true
	for queue := []int{s}; len(queue) > 0 && !visited[t]; queue = queue[1:] {
		for _, id := range base.Out(queue[0]) {
			l := base.Link(int(id))
			if len(l.Channels) == 0 || visited[l.To] || m.eng.LinkFailed(l.ID) {
				continue
			}
			visited[l.To], via[l.To] = true, id
			queue = append(queue, l.To)
		}
	}
	if !visited[t] {
		return nil, false
	}
	var route []int
	for v := t; v != s; v = base.Link(int(via[v])).From {
		route = append(route, int(via[v]))
	}
	slices.Reverse(route)
	return route, true
}

// claim allocates a path whose channels the caller checked free under
// m.mu, so the engine cannot refuse it; a refusal means the occupancy
// record is corrupt.
func (m *SessionManager) claim(s, t int, path *wdm.Semilightpath, cost float64) *Circuit {
	id := m.eng.ReserveOwner()
	if err := m.eng.Allocate(id, path); err != nil {
		panic(fmt.Sprintf("lightpath: claim of checked-free channels failed: %v", err))
	}
	return &Circuit{ID: SessionID(id), From: s, To: t, Path: path, Cost: cost}
}

// AdmitProtected admits a 1+1 protected circuit: a primary optimal
// semilightpath plus a link-disjoint backup, both routed over the current
// residual capacity and both claiming their channels until Release.
// Releasing the primary releases the backup too. It is all-or-nothing:
// when either path cannot be provisioned the request is blocked and
// nothing is claimed.
func (m *SessionManager) AdmitProtected(s, t int) (primary, backup *Circuit, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pair, err := m.eng.RouteProtected(s, t, &core.ProtectOptions{
		PrimaryCandidates: 4, // modest anti-trap effort per admission
	})
	if errors.Is(err, core.ErrNoRoute) || errors.Is(err, core.ErrNoBackup) {
		return nil, nil, m.block(s, t, " (protected)")
	}
	if err != nil {
		return nil, nil, err
	}
	primary = m.claim(s, t, pair.Primary.Path, pair.Primary.Cost)
	backup = m.claim(s, t, pair.Backup.Path, pair.Backup.Cost)
	m.backup[primary.ID] = backup.ID
	return primary, backup, nil
}

// Release tears the circuit down, freeing its channels. Releasing a
// protected primary (see AdmitProtected) also releases its backup. An ID
// that holds nothing is engine.ErrUnknownOwner.
func (m *SessionManager) Release(id SessionID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.release(id)
}

// release is Release's body; callers hold m.mu.
func (m *SessionManager) release(id SessionID) error {
	if err := m.eng.Release(int64(id)); err != nil {
		return fmt.Errorf("lightpath: release circuit %d: %w", id, err)
	}
	backup, paired := m.backup[id]
	if !paired {
		return nil
	}
	delete(m.backup, id)
	// The backup may have been released on its own already.
	if err := m.eng.Release(int64(backup)); err != nil && !errors.Is(err, engine.ErrUnknownOwner) {
		return fmt.Errorf("lightpath: release backup %d of circuit %d: %w", backup, id, err)
	}
	return nil
}

// FailureReport describes the effect of one fiber cut.
type FailureReport struct {
	Link int
	// Dropped circuits were torn down (their channels freed) because
	// they rode the failed link and had no surviving backup.
	Dropped []SessionID
	// Survived lists protected primaries whose path was cut but whose
	// backup remains provisioned and intact.
	Survived []SessionID
}

// FailLink takes a physical link out of service and tears down every
// circuit riding it. A protected primary whose backup does not ride the
// link survives: its dark channels are freed and the backup carries on
// stand-alone. Failed links carry no traffic until RepairLink, under
// every policy. Failing a failed link reports no damage.
func (m *SessionManager) FailLink(link int) (*FailureReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	riders, err := m.eng.FailLink(link)
	if err != nil {
		return nil, fmt.Errorf("lightpath: fail link %d: %w", link, err)
	}
	report := &FailureReport{Link: link}
	// riders come back ascending, so teardown order is deterministic.
	for _, owner := range riders {
		id := SessionID(owner)
		if backup, paired := m.backup[id]; paired && m.intact(backup, link) {
			if err := m.eng.Release(owner); err != nil {
				return nil, fmt.Errorf("lightpath: free dark primary %d: %w", id, err)
			}
			delete(m.backup, id)
			report.Survived = append(report.Survived, id)
			continue
		}
		if err := m.release(id); err != nil {
			return nil, fmt.Errorf("lightpath: teardown after failure: %w", err)
		}
		report.Dropped = append(report.Dropped, id)
	}
	return report, nil
}

// intact reports whether circuit id still holds its channels and none of
// them is on link.
func (m *SessionManager) intact(id SessionID, link int) bool {
	chans := m.eng.OwnerChannels(int64(id))
	return chans != nil && !slices.ContainsFunc(chans, func(c engine.Channel) bool { return c.Link == link })
}

// RepairLink returns a failed link to service. Unknown or healthy links
// are a no-op, which keeps repair idempotent for operators replaying
// failure logs. The error surfaces a failed snapshot publish: the
// repaired capacity is not routable until a later mutation succeeds.
func (m *SessionManager) RepairLink(link int) error {
	if link < 0 || link >= m.eng.Base().NumLinks() {
		return nil
	}
	return m.eng.RepairLink(link)
}

// TrafficConfig parameterizes a dynamic-traffic simulation in the
// classic Erlang style: circuit requests arrive as a Poisson process,
// hold for exponentially distributed times, and pick uniform random
// (source, destination) pairs.
type TrafficConfig struct {
	// Requests is the number of connection requests to offer.
	Requests int
	// Load is the offered load in Erlangs: arrival rate × mean holding
	// time. With mean holding fixed at 1, the arrival rate is Load.
	Load float64
	// Seed drives the simulation's randomness.
	Seed int64
	// Policy selects the admission algorithm; zero means PolicyOptimal.
	Policy AdmissionPolicy
}

// TrafficResult summarizes a dynamic-traffic simulation.
type TrafficResult struct {
	Stats           SessionStats
	PeakActive      int
	MeanActive      float64
	MeanUtilization float64
	MeanCost        float64 // mean admitted-circuit cost
}

// departure is a scheduled circuit teardown.
type departure struct {
	at float64
	id SessionID
}

// SimulateTraffic runs an Erlang-style dynamic-traffic simulation
// against a fresh manager m: Poisson arrivals at rate cfg.Load, unit
// mean exponential holding times, uniform random node pairs. Every
// circuit is released by the end, and m's counters reflect the run.
func SimulateTraffic(m *SessionManager, cfg TrafficConfig) (*TrafficResult, error) {
	n := m.eng.Base().NumNodes()
	if cfg.Requests <= 0 || cfg.Load <= 0 || n < 2 {
		return nil, fmt.Errorf("lightpath: a simulation needs positive Requests and Load and 2 nodes, got %d, %v and %d",
			cfg.Requests, cfg.Load, n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &TrafficResult{}
	var (
		deps       []departure // pending teardowns, soonest first
		clock      float64
		activeArea float64 // ∫ active(t) dt
		utilArea   float64 // ∫ utilization(t) dt
		costSum    float64
		last       float64 // time of the last event
	)
	advance := func(to float64) {
		if dt := to - last; dt > 0 {
			activeArea += dt * float64(m.ActiveCircuits())
			utilArea += dt * m.Utilization()
		}
		last = to
	}
	// depart tears down every circuit departing no later than until.
	depart := func(until float64) error {
		for len(deps) > 0 && deps[0].at <= until {
			d := deps[0]
			deps = deps[1:]
			advance(d.at)
			if err := m.Release(d.id); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < cfg.Requests; i++ {
		clock += rng.ExpFloat64() / cfg.Load // next arrival
		if err := depart(clock); err != nil {
			return nil, err
		}
		advance(clock)
		s := rng.Intn(n)
		t := rng.Intn(n - 1)
		if t >= s {
			t++
		}
		c, err := m.AdmitPolicy(s, t, cfg.Policy)
		if errors.Is(err, ErrBlocked) {
			continue // counted by the manager
		}
		if err != nil {
			return nil, err
		}
		costSum += c.Cost
		d := departure{at: clock + rng.ExpFloat64(), id: c.ID}
		j, _ := slices.BinarySearchFunc(deps, d.at, func(d departure, at float64) int { return cmp.Compare(d.at, at) })
		deps = slices.Insert(deps, j, d)
		res.PeakActive = max(res.PeakActive, m.ActiveCircuits())
	}
	if err := depart(math.Inf(1)); err != nil {
		return nil, err
	}
	res.Stats = m.Stats()
	if last > 0 {
		res.MeanActive = activeArea / last
		res.MeanUtilization = utilArea / last
	}
	if res.Stats.Admitted > 0 {
		res.MeanCost = costSum / float64(res.Stats.Admitted)
	}
	return res, nil
}
