// Package engine is the concurrent routing layer: it serves
// Route/RouteFrom/KShortest/RouteProtected queries against a *mutable*
// WDM network using epoch-based copy-on-write snapshots.
//
// The problem it solves: package core compiles a network into an
// immutable auxiliary graph (core.Aux), which is perfect for a static
// network but wrong for online circuit switching — every wavelength
// allocation changes the residual capacity, and the naive fix (rebuild
// the Aux inside every request, as internal/session originally did)
// puts the full O(k²n + km) construction on the latency path of every
// query and forbids concurrency.
//
// The engine inverts that: mutators (Allocate/Release/FailLink/
// RepairLink) pay for the rebuild, bumping a monotone epoch counter and
// atomically publishing a fresh immutable Snapshot {epoch, residual
// network, compiled Aux}. Readers never rebuild anything — they pin the
// current snapshot with one atomic load and route against it for as
// long as they like, even while later writers publish newer epochs.
// Any number of readers run concurrently with each other and with
// writers; writers are serialized among themselves.
//
// On top of the snapshots sit two throughput features:
//
//   - bounded LRU caches keyed by epoch: the row of optimal costs per
//     source (CostsFrom), stored by the pass of a source's first ask so
//     every later single-source cost query at that epoch is a lookup —
//     and, once the row's first hit has rendered its text, a copy; the
//     Result per (source, destination), stored by the search of the
//     pair's second ask, so every later point query of it at that epoch
//     searches nothing; and under DirectedAStar the physical-bound row
//     per destination, so repeated point queries toward it skip their
//     backward pass. A SourceTree itself is never kept: it is built, read
//     and dropped; and
//   - batched request execution (RouteBatch, BatchCosts), which pins one
//     snapshot for the whole batch and prices each source: a cached cost
//     row answers inline, a tree is built only for a source the batch
//     names often enough to amortise the pass (core.Aux.TreePays), and
//     the rest are point queries, on a worker pool.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/graph"
	"lightpath/internal/obs"
	"lightpath/internal/wdm"
)

// Errors returned by the engine.
var (
	// ErrNilNetwork is returned for a nil base network.
	ErrNilNetwork = errors.New("engine: nil network")
	// ErrConflict is returned when Allocate finds a requested channel
	// already held (or its link failed) — typically because the path was
	// routed on an older epoch's snapshot. Route again and retry.
	ErrConflict = errors.New("engine: channel conflict")
	// ErrUnknownOwner is returned when releasing an owner holding nothing.
	ErrUnknownOwner = errors.New("engine: unknown owner")
	// ErrDuplicateOwner is returned when an owner ID already holds a lease.
	ErrDuplicateOwner = errors.New("engine: owner already holds a lease")
	// ErrLinkRange is returned for an out-of-range link ID.
	ErrLinkRange = errors.New("engine: link out of range")
)

// Channel identifies one (link, wavelength) resource unit.
type Channel struct {
	Link   int
	Lambda wdm.Wavelength
}

// Options configures a new engine.
type Options struct {
	// Queue selects the priority structure of the searches that consult
	// one: SourceTree passes (RouteFrom, the trees RouteBatch builds) and
	// DirectedPlain point queries. Zero means graph.QueueBucket — trees
	// built label-correcting over buckets, point queries on the binary heap
	// every search with a goal runs on. graph.QueueBinary builds the trees
	// on the heap too (same costs bit for bit; the A/B reference). New
	// refuses any other kind: Fibonacci and linear are ablation subjects.
	Queue graph.QueueKind
	// CacheSize sizes the three per-epoch caches at CacheSize × TreePays
	// entries each: the cost-row LRU, the route memo and — under
	// DirectedAStar — the bound-row LRU. Zero means DefaultCacheSize;
	// negative disables all three.
	CacheSize int
	// MaxDeltaDepth is a test seam, not a tuning knob: the zero value
	// chains core.Aux.ApplyDelta without bound (a search on a long chain
	// costs what it costs on a fresh compile — EXPERIMENTS.md X17).
	// Negative disables delta maintenance, forcing a full compile every
	// epoch (the differential baseline); a positive value forces one
	// after that many consecutive deltas, which interleaves both publish
	// paths under the fuzzer.
	MaxDeltaDepth int
	// Directed selects the point-query search strategy for all snapshots:
	// core.DirectedPlain or core.DirectedAStar; New refuses any other
	// value. The zero value is plain — the paper's search. Neither mode
	// keeps state across epochs: every query derives what it needs from
	// the snapshot it is pinned to, and what DirectedAStar keeps — bound
	// rows — is keyed by epoch like the cost rows.
	Directed core.DirectedMode
}

// DefaultCacheSize is Options.CacheSize when it is zero: 64 × TreePays
// entries of each kind (512 under astar on the serving networks).
const DefaultCacheSize = 64

// memoSlots sizes the route memo's askedAt table: 32 KB, one slot per
// pair while n² ≤ 4096.
const memoSlots = 4096

// Stats are the engine's lifetime counters.
type Stats struct {
	Epoch       uint64 // current epoch (number of mutations applied)
	Allocations uint64
	Releases    uint64
	Conflicts   uint64 // Allocate calls rejected with ErrConflict
	// Rebuilds counts snapshots published, whatever produced them; with
	// synchronous publication it always equals Epoch+1 and decomposes as
	// Rebuilds == FullRebuilds + DeltaApplies.
	Rebuilds uint64
	// FullRebuilds counts snapshots compiled from scratch with
	// core.NewAuxWithLayout — the O(k²n + km) path: the epoch-0 build
	// and fallbacks for mutations the delta path could not apply.
	FullRebuilds uint64
	// DeltaApplies counts snapshots produced incrementally by
	// core.Aux.ApplyDelta — the O(affected fragment) path.
	DeltaApplies uint64
	ActiveOwners int
	HeldChannels int
}

// Engine owns the mutable occupancy state of one WDM network and
// publishes immutable routing snapshots. All methods are safe for
// concurrent use.
type Engine struct {
	base     *wdm.Network
	queue    graph.QueueKind
	directed core.DirectedMode
	// rows keeps DirectedAStar's complete bound rows per (destination,
	// epoch), built on the second ask of their key (askedAt), so a
	// destination that does not recur within an epoch costs nothing beyond
	// the query's own pass. Both nil unless the engine runs astar with the
	// cache enabled.
	rows     *epochCache[[]float32]
	rowAsked askedAt
	// costs keeps Corollary 1's answer itself: the n optimal costs from a
	// source at an epoch, copied off the pass of the source's first
	// CostsFrom of that epoch — a seventeenth of the tree's bytes at n=100
	// — and their text, rendered on the row's first hit. Nil with the cache
	// disabled.
	costs *epochCache[*costRow]
	// memo keeps Theorem 1's answer itself: the Result of one (source,
	// destination) at an epoch, stored by the search of the pair's second
	// ask (memoAsked, keyed src·n + dst) and shared read-only by every
	// later Route of it. Both nil with the cache disabled.
	memo      *epochCache[*core.Result]
	memoAsked askedAt
	metrics   *Metrics

	// mu guards the mutable occupancy state below and serializes
	// mutators; readers of occupancy take it in read mode. Routing never
	// takes it — routing reads the atomic snapshot.
	mu     sync.RWMutex
	inUse  map[Channel]int64 // channel -> owner
	owners map[int64][]Channel
	failed map[int]bool

	maxDeltaDepth int // Options.MaxDeltaDepth

	// Delta-publish scratch, reused across epochs under mu: the
	// changed-link set, the free-channel lists handed to PatchChannels
	// (which copies what it keeps) and the patch map itself.
	changedBuf []int
	freeBuf    []wdm.Channel
	patchBuf   map[int][]wdm.Channel

	// publishFault, when non-nil, fails a publish path before it does any
	// work (full reports which). Tests force the fallbacks with it.
	publishFault func(full bool) error

	snap atomic.Pointer[Snapshot]

	allocations  atomic.Uint64
	releases     atomic.Uint64
	conflicts    atomic.Uint64
	rebuilds     atomic.Uint64
	fullRebuilds atomic.Uint64
	deltaApplies atomic.Uint64

	ownerSeq atomic.Int64
}

// ReserveOwner mints a process-unique owner ID (1, 2, 3, …) for a
// subsequent Allocate or RouteAndAllocate. Concurrent front-ends (one
// serving session per TCP connection, say) must not invent owner IDs
// independently — Allocate rejects duplicates — so they draw from this
// shared sequence instead. A reserved ID that is never allocated is
// simply skipped.
func (e *Engine) ReserveOwner() int64 { return e.ownerSeq.Add(1) }

// New builds an engine over the installed network nw and publishes the
// epoch-0 snapshot (the full network: nothing allocated, nothing
// failed). The engine never mutates nw.
func New(nw *wdm.Network, opts *Options) (*Engine, error) {
	if nw == nil {
		return nil, ErrNilNetwork
	}
	e := &Engine{
		base:     nw,
		queue:    graph.QueueBucket,
		inUse:    make(map[Channel]int64),
		owners:   make(map[int64][]Channel),
		failed:   make(map[int]bool),
		patchBuf: make(map[int][]wdm.Channel),
	}
	cacheSize := DefaultCacheSize
	if opts != nil {
		if opts.Queue != 0 {
			e.queue = opts.Queue
		}
		if opts.CacheSize != 0 {
			cacheSize = opts.CacheSize
		}
		if opts.MaxDeltaDepth != 0 {
			e.maxDeltaDepth = opts.MaxDeltaDepth
		}
		e.directed = opts.Directed
	}
	if e.directed != core.DirectedPlain && e.directed != core.DirectedAStar {
		return nil, fmt.Errorf("engine: unknown search mode %v", e.directed)
	}
	if e.queue != graph.QueueBucket && e.queue != graph.QueueBinary {
		return nil, fmt.Errorf("engine: %v is not a serving queue (bucket or binary)", e.queue)
	}
	if cacheSize > 0 {
		// The row capacities are set below, once TreePays is known.
		e.costs = newEpochCache[*costRow](cacheSize)
		e.memo = newEpochCache[*core.Result](cacheSize)
		e.memoAsked = make(askedAt, memoSlots)
		if e.directed == core.DirectedAStar {
			e.rows = newEpochCache[[]float32](cacheSize)
			e.rowAsked = make(askedAt, nw.NumNodes())
		}
	}
	// Metrics must exist before the first rebuild so the epoch-0 compile
	// is measured too.
	e.metrics = newMetrics(e)
	if err := e.publish(0, nil, nil); err != nil {
		return nil, err
	}
	if e.costs != nil {
		// CacheSize counts tree-sized slots, and a slot holds the TreePays
		// rows of either kind a tree is worth: n float32s (bound) or
		// float64s (cost) each, against a tree's two int32s per auxiliary
		// node — at most half the bytes. The memo takes as many Results,
		// each a path of a few hops.
		rows := cacheSize * e.Snapshot().aux.TreePays(e.directed)
		e.costs.capacity = rows
		e.memo.capacity = rows
		if e.rows != nil {
			e.rows.capacity = rows
		}
	}
	return e, nil
}

// Directed reports the engine's configured point-query search strategy.
func (e *Engine) Directed() core.DirectedMode { return e.directed }

// Base returns the installed (non-residual) network.
func (e *Engine) Base() *wdm.Network { return e.base }

// Epoch reports the current epoch: 0 at construction, +1 per mutation.
func (e *Engine) Epoch() uint64 { return e.snap.Load().epoch }

// Snapshot pins the current routing snapshot. The returned value is
// immutable and remains valid (and consistent) forever; it simply goes
// stale as later mutations publish newer epochs.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// publish produces and publishes the snapshot for the given epoch from
// the current occupancy state. changed lists the link IDs whose
// residual channel sets differ from the previous epoch; a nil slice
// means "unknown / everything" and forces a full compile. Callers must
// hold mu (or be the constructor, before the engine escapes).
//
// The next snapshot is built incrementally with core.Aux.ApplyDelta —
// O(affected fragment) instead of the O(k²n + km) full compile — however
// long the chain of deltas behind the previous one. Any failure of that
// path (an inexpressible shape, a rejected channel set) falls back to
// the full compile from the occupancy tables; only when that fails too
// does publish return an error, and then nothing was published: the
// caller rolls its occupancy change back.
//
// A non-nil sp times the publication as an engine_publish child span
// annotated with the epoch and the path taken (mode=delta|full).
func (e *Engine) publish(epoch uint64, changed []int, sp *obs.Span) error {
	psp := sp.StartChild(SpanPublish)
	defer psp.End()
	psp.SetInt(AttrEpoch, int64(epoch))
	start := time.Now()
	if prev := e.snap.Load(); prev != nil && changed != nil &&
		(e.maxDeltaDepth == 0 || prev.aux.DeltaDepth() < e.maxDeltaDepth) {
		if e.applyDelta(prev, epoch, changed) == nil {
			e.rebuilds.Add(1)
			e.deltaApplies.Add(1)
			e.metrics.deltaLatency.ObserveDuration(time.Since(start))
			psp.SetStr(AttrMode, "delta")
			return nil
		}
	}
	if e.publishFault != nil {
		if err := e.publishFault(true); err != nil {
			return err
		}
	}
	// The residual is the base patched on every link with a held channel
	// or a failed state, each to its free set (a failed link to none, so
	// link IDs stay aligned): every other link, the spines and the
	// converter are the base's own, and at epoch 0 nothing is patched.
	// The free lists and the patch map are not kept: PatchChannels copies
	// the lists into an exactly sized arena of its own.
	var patch map[int][]wdm.Channel
	var free []wdm.Channel
	add := func(id int) {
		if _, done := patch[id]; !done {
			at := len(free)
			free = e.appendFree(free, id)
			patch[id] = free[at:]
		}
	}
	if touched := len(e.inUse) + len(e.failed); touched > 0 {
		patch = make(map[int][]wdm.Channel, touched)
	}
	for c := range e.inUse {
		add(c.Link)
	}
	for id := range e.failed {
		add(id)
	}
	res, err := e.base.PatchChannels(patch)
	if err != nil {
		return fmt.Errorf("engine: residual: %w", err)
	}
	// Compile inside the base network's layout so the gadget-node space
	// is identical at every epoch — the invariant that lets subsequent
	// mutations be applied as deltas no matter the occupancy level.
	aux, err := core.NewAuxWithLayout(e.base, res)
	if err != nil {
		return fmt.Errorf("engine: compile snapshot: %w", err)
	}
	e.snap.Store(e.newSnapshot(epoch, res, aux))
	e.rebuilds.Add(1)
	e.fullRebuilds.Add(1)
	e.metrics.rebuildLatency.ObserveDuration(time.Since(start))
	psp.SetStr(AttrMode, "full")
	return nil
}

// applyDelta builds epoch's snapshot incrementally on top of prev:
// patch the residual network's changed links, patch the compiled
// auxiliary graph's affected gadget fragments, publish.
func (e *Engine) applyDelta(prev *Snapshot, epoch uint64, changed []int) error {
	if e.publishFault != nil {
		if err := e.publishFault(false); err != nil {
			return err
		}
	}
	clear(e.patchBuf)
	free := e.freeBuf[:0]
	for _, id := range changed {
		if id < 0 || id >= e.base.NumLinks() {
			return fmt.Errorf("%w: %d", ErrLinkRange, id)
		}
		at := len(free)
		free = e.appendFree(free, id)
		e.patchBuf[id] = free[at:]
	}
	e.freeBuf = free
	net, err := prev.net.PatchChannels(e.patchBuf)
	if err != nil {
		return fmt.Errorf("engine: patch residual: %w", err)
	}
	aux, err := prev.aux.ApplyDelta(net, changed)
	if err != nil {
		return err
	}
	e.snap.Store(e.newSnapshot(epoch, net, aux))
	return nil
}

// newSnapshot assembles a publishable snapshot: the epoch's residual and
// compiled aux plus the precomputed read-only query options.
func (e *Engine) newSnapshot(epoch uint64, net *wdm.Network, aux *core.Aux) *Snapshot {
	s := &Snapshot{
		epoch: epoch, net: net, aux: aux, eng: e,
		ropts: core.Options{Queue: e.queue, Directed: e.directed},
		rows:  boundRows{eng: e, epoch: epoch},
	}
	if e.rows != nil {
		s.ropts.Bound = &s.rows
	}
	return s
}

// appendFree appends link's currently free channels to dst in
// base-network order: installed, in service, unheld. Callers must hold mu.
func (e *Engine) appendFree(dst []wdm.Channel, link int) []wdm.Channel {
	if e.failed[link] {
		return dst
	}
	for _, ch := range e.base.Link(link).Channels {
		if _, taken := e.inUse[Channel{Link: link, Lambda: ch.Lambda}]; !taken {
			dst = append(dst, ch)
		}
	}
	return dst
}

// changedLinks collects into e.changedBuf the distinct link IDs of a
// claimed/released channel set — the delta surface of an Allocate or
// Release mutation. A path is a handful of hops, so the scan is quadratic.
func (e *Engine) changedLinks(chans []Channel) []int {
	out := e.changedBuf[:0]
	for _, c := range chans {
		if !slices.Contains(out, c.Link) {
			out = append(out, c.Link)
		}
	}
	e.changedBuf = out
	return out
}

// Allocate claims every channel of path for owner, bumps the epoch and
// publishes the new snapshot. It is all-or-nothing: on ErrConflict (a
// channel already held, or a hop on a failed link) nothing is claimed.
// Each owner ID may hold at most one lease at a time. Under a parent span
// an engine_allocate child covers the claim and the publish.
func (e *Engine) Allocate(owner int64, path *wdm.Semilightpath, parent ...*obs.Span) error {
	return e.allocate(owner, path, parentSpan(parent), -1)
}

// allocate is Allocate's body, shared with RouteAndAllocate's retry loop,
// which annotates the engine_allocate span with the loop ordinal
// (attempt ≥ 0; Allocate passes -1).
func (e *Engine) allocate(owner int64, path *wdm.Semilightpath, parent *obs.Span, attempt int) error {
	sp := parent.StartChild(SpanAllocate)
	defer sp.End()
	if sp != nil && attempt >= 0 {
		sp.SetInt(AttrAttempt, int64(attempt))
	}
	if path == nil {
		return errors.New("engine: nil path")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.owners[owner]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateOwner, owner)
	}
	chans := make([]Channel, 0, len(path.Hops))
	for _, h := range path.Hops {
		if h.Link < 0 || h.Link >= e.base.NumLinks() {
			return fmt.Errorf("%w: %d", ErrLinkRange, h.Link)
		}
		if _, installed := e.base.Link(h.Link).Has(h.Wavelength); !installed {
			return fmt.Errorf("engine: λ%d not installed on link %d", h.Wavelength, h.Link)
		}
		c := Channel{Link: h.Link, Lambda: h.Wavelength}
		if holder, taken := e.inUse[c]; taken {
			e.conflicts.Add(1)
			sp.SetBool(AttrConflict, true)
			return fmt.Errorf("%w: (link %d, λ%d) held by %d", ErrConflict, c.Link, c.Lambda, holder)
		}
		if e.failed[h.Link] {
			e.conflicts.Add(1)
			sp.SetBool(AttrConflict, true)
			return fmt.Errorf("%w: link %d is failed", ErrConflict, h.Link)
		}
		chans = append(chans, c)
	}
	// A path may not use one channel twice (wdm.Semilightpath.Validate
	// enforces chaining, not channel-distinctness across revisits of the
	// same link — guard here since channels are a claimable resource).
	for i, c := range chans {
		if slices.Contains(chans[:i], c) {
			e.conflicts.Add(1)
			sp.SetBool(AttrConflict, true)
			return fmt.Errorf("%w: path uses (link %d, λ%d) twice", ErrConflict, c.Link, c.Lambda)
		}
	}
	e.claim(owner, chans)
	if err := e.publish(e.Epoch()+1, e.changedLinks(chans), sp); err != nil {
		e.unclaim(owner, chans)
		return err
	}
	e.allocations.Add(1)
	return nil
}

// claim records chans as held by owner; unclaim is its inverse. Callers
// hold mu and publish (or roll back) in the same critical section.
func (e *Engine) claim(owner int64, chans []Channel) {
	for _, c := range chans {
		e.inUse[c] = owner
	}
	e.owners[owner] = chans
}

func (e *Engine) unclaim(owner int64, chans []Channel) {
	for _, c := range chans {
		delete(e.inUse, c)
	}
	delete(e.owners, owner)
}

// Release frees every channel owner holds, bumps the epoch and
// publishes the new snapshot. Under a parent span an engine_release child
// covers the teardown and the publish.
func (e *Engine) Release(owner int64, parent ...*obs.Span) error {
	sp := parentSpan(parent).StartChild(SpanRelease)
	defer sp.End()
	e.mu.Lock()
	defer e.mu.Unlock()
	chans, ok := e.owners[owner]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownOwner, owner)
	}
	e.unclaim(owner, chans)
	if err := e.publish(e.Epoch()+1, e.changedLinks(chans), sp); err != nil {
		e.claim(owner, chans)
		return err
	}
	e.releases.Add(1)
	return nil
}

// RouteAndAllocate routes s→t on the current snapshot and immediately
// claims the resulting path for owner. Because routing reads a pinned
// snapshot while other writers may land first, the claim can conflict;
// the engine then re-routes on the fresh snapshot and retries, up to
// maxRetries times, before giving up with ErrConflict. A core.ErrNoRoute
// from any attempt is returned as-is (the request is blocked). Every
// retry round lands on the engine_alloc_retries_total counter. Under a
// parent span every attempt records one engine_route and one
// engine_allocate child (the latter carrying the attempt ordinal, and
// conflict=true when the claim lost the race).
func (e *Engine) RouteAndAllocate(owner int64, s, t int, parent ...*obs.Span) (*core.Result, error) {
	const maxRetries = 8
	sp := parentSpan(parent)
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			e.metrics.allocRetries.Inc()
		}
		res, err := e.Snapshot().Route(s, t, sp)
		if err != nil {
			return nil, err
		}
		err = e.allocate(owner, res.Path, sp, attempt)
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, ErrConflict) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("engine: route-and-allocate gave up after retries: %w", lastErr)
}

// FailLink takes a physical link out of service: its channels stop
// appearing in snapshots until RepairLink. Channels already held on the
// link stay held (teardown policy belongs to the caller); the returned
// slice lists the owners riding the link, ascending, so callers can
// decide what to drop. Failing an already-failed link is a no-op.
func (e *Engine) FailLink(link int) ([]int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if link < 0 || link >= e.base.NumLinks() {
		return nil, fmt.Errorf("%w: %d", ErrLinkRange, link)
	}
	if e.failed[link] {
		return nil, nil
	}
	e.failed[link] = true
	var riders []int64
	seen := make(map[int64]bool)
	for c, owner := range e.inUse {
		if c.Link == link && !seen[owner] {
			seen[owner] = true
			riders = append(riders, owner)
		}
	}
	sort.Slice(riders, func(i, j int) bool { return riders[i] < riders[j] })
	if err := e.publish(e.Epoch()+1, []int{link}, nil); err != nil {
		delete(e.failed, link)
		return nil, err
	}
	return riders, nil
}

// RepairLink returns a failed link to service. Repairing a healthy
// link is a no-op; an out-of-range link is ErrLinkRange, mirroring
// FailLink.
func (e *Engine) RepairLink(link int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if link < 0 || link >= e.base.NumLinks() {
		return fmt.Errorf("%w: %d", ErrLinkRange, link)
	}
	if !e.failed[link] {
		return nil
	}
	delete(e.failed, link)
	if err := e.publish(e.Epoch()+1, []int{link}, nil); err != nil {
		e.failed[link] = true
		return err
	}
	return nil
}

// LinkFailed reports whether the link is currently out of service.
func (e *Engine) LinkFailed(link int) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.failed[link]
}

// FailedLinks lists the links currently out of service, ascending.
func (e *Engine) FailedLinks() []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]int, 0, len(e.failed))
	for l := range e.failed {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// HolderOf reports which owner holds the given channel, if any.
func (e *Engine) HolderOf(link int, lam wdm.Wavelength) (int64, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	owner, ok := e.inUse[Channel{Link: link, Lambda: lam}]
	return owner, ok
}

// ChannelFree reports whether (link, λ) is installed, in service and
// unheld — i.e. whether it appears in the current snapshot.
func (e *Engine) ChannelFree(link int, lam wdm.Wavelength) bool {
	if link < 0 || link >= e.base.NumLinks() {
		return false
	}
	if _, installed := e.base.Link(link).Has(lam); !installed {
		return false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.failed[link] {
		return false
	}
	_, taken := e.inUse[Channel{Link: link, Lambda: lam}]
	return !taken
}

// OwnerChannels returns the channels the owner currently holds (nil for
// unknown owners). The slice is a copy.
func (e *Engine) OwnerChannels(owner int64) []Channel {
	e.mu.RLock()
	defer e.mu.RUnlock()
	chans, ok := e.owners[owner]
	if !ok {
		return nil
	}
	out := make([]Channel, len(chans))
	copy(out, chans)
	return out
}

// HeldByWavelength counts currently-held channels per wavelength index
// (length K). Wavelength-assignment heuristics use it to rank colors.
func (e *Engine) HeldByWavelength() []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	usage := make([]int, e.base.K())
	for c := range e.inUse {
		usage[c.Lambda]++
	}
	return usage
}

// HeldChannels reports the number of currently-claimed channels.
func (e *Engine) HeldChannels() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.inUse)
}

// Utilization is the fraction of installed channels currently held.
func (e *Engine) Utilization() float64 {
	total := e.base.TotalChannels()
	if total == 0 {
		return 0
	}
	return float64(e.HeldChannels()) / float64(total)
}

// Stats snapshots the engine's lifetime counters.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	owners, held := len(e.owners), len(e.inUse)
	e.mu.RUnlock()
	return Stats{
		Epoch:        e.Epoch(),
		Allocations:  e.allocations.Load(),
		Releases:     e.releases.Load(),
		Conflicts:    e.conflicts.Load(),
		Rebuilds:     e.rebuilds.Load(),
		FullRebuilds: e.fullRebuilds.Load(),
		DeltaApplies: e.deltaApplies.Load(),
		ActiveOwners: owners,
		HeldChannels: held,
	}
}

// CacheStats reports the cost-row cache counters (zero value when
// caching is disabled).
func (e *Engine) CacheStats() CacheStats {
	if e.costs == nil {
		return CacheStats{}
	}
	return e.costs.stats()
}

// RouteMemoStats reports the route memo's counters (zero value when
// caching is disabled): a lookup per Route of two distinct nodes in
// range, a store per second ask of a pair at an epoch that was served.
func (e *Engine) RouteMemoStats() CacheStats {
	if e.memo == nil {
		return CacheStats{}
	}
	return e.memo.stats()
}

// BoundRowStats reports the bound-row cache counters (zero value when
// the engine keeps no rows: plain search, or caching disabled).
func (e *Engine) BoundRowStats() CacheStats {
	if e.rows == nil {
		return CacheStats{}
	}
	return e.rows.stats()
}
