package engine

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/graph"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

// buildNet instantiates a deterministic test network over t.
func buildNet(t *testing.T, tp *topo.Topology, k int, seed int64) *wdm.Network {
	t.Helper()
	nw, err := workload.Build(tp, workload.Spec{
		K:         k,
		AvailProb: 0.7,
		Conv:      workload.ConvUniform,
		ConvCost:  0.3,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("build network: %v", err)
	}
	return nw
}

func TestNewRejectsNil(t *testing.T) {
	if _, err := New(nil, nil); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("want ErrNilNetwork, got %v", err)
	}
}

func TestEpochZeroSnapshotIsFullNetwork(t *testing.T) {
	nw := buildNet(t, topo.NSFNET(), 4, 1)
	e, err := New(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.Epoch() != 0 {
		t.Fatalf("fresh engine epoch = %d, want 0", snap.Epoch())
	}
	if got, want := snap.Network().TotalChannels(), nw.TotalChannels(); got != want {
		t.Fatalf("epoch-0 residual has %d channels, want %d", got, want)
	}
}

func TestAllocateReleaseRoundTrip(t *testing.T) {
	nw := buildNet(t, topo.NSFNET(), 4, 1)
	e, err := New(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteAndAllocate(7, 0, 9)
	if err != nil {
		t.Fatalf("route-and-allocate: %v", err)
	}
	if res.Path.Len() == 0 {
		t.Fatal("expected a nonempty path")
	}
	if e.Epoch() != 1 {
		t.Fatalf("epoch after one allocation = %d, want 1", e.Epoch())
	}
	// Every hop channel must now be held by owner 7 and gone from the
	// residual snapshot.
	snap := e.Snapshot()
	for _, h := range res.Path.Hops {
		if !slices.Contains(e.OwnerChannels(7), Channel{Link: h.Link, Lambda: h.Wavelength}) {
			t.Fatalf("channel (link %d, λ%d) not held by owner 7", h.Link, h.Wavelength)
		}
		if _, free := snap.Network().Link(h.Link).Has(h.Wavelength); free {
			t.Fatalf("allocated channel (link %d, λ%d) still in residual", h.Link, h.Wavelength)
		}
	}
	if got, want := e.HeldChannels(), res.Path.Len(); got != want {
		t.Fatalf("held channels = %d, want %d", got, want)
	}

	// Double allocation under the same owner is rejected.
	if err := e.Allocate(7, res.Path); !errors.Is(err, ErrDuplicateOwner) {
		t.Fatalf("duplicate owner: got %v", err)
	}
	// Claiming a held channel conflicts.
	if err := e.Allocate(8, res.Path); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting allocate: got %v", err)
	}

	if err := e.Release(7); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := e.Release(7); !errors.Is(err, ErrUnknownOwner) {
		t.Fatalf("double release: got %v", err)
	}
	if e.HeldChannels() != 0 {
		t.Fatalf("held channels after release = %d, want 0", e.HeldChannels())
	}
	if got, want := e.Snapshot().Network().TotalChannels(), nw.TotalChannels(); got != want {
		t.Fatalf("residual after release has %d channels, want %d", got, want)
	}
}

func TestPinnedSnapshotSurvivesChurn(t *testing.T) {
	nw := buildNet(t, topo.NSFNET(), 4, 1)
	e, err := New(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	pinned := e.Snapshot()
	before, err := pinned.Route(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Churn the engine: allocate three circuits.
	for i := int64(0); i < 3; i++ {
		if _, err := e.RouteAndAllocate(i, int(i), 13); err != nil {
			t.Fatalf("churn alloc %d: %v", i, err)
		}
	}
	if e.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", e.Epoch())
	}
	// The pinned snapshot must answer identically to its own epoch.
	after, err := pinned.Route(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if before.Cost != after.Cost {
		t.Fatalf("pinned snapshot answer changed under churn: %v -> %v", before.Cost, after.Cost)
	}
	if pinned.Epoch() != 0 || e.Snapshot().Epoch() != 3 {
		t.Fatalf("epochs: pinned %d (want 0), current %d (want 3)", pinned.Epoch(), e.Snapshot().Epoch())
	}
}

// TestCostRowCacheCounters: the row cache is an LRU keyed by (source,
// epoch) — a repeat is a hit, overfilling evicts, and a new epoch misses.
func TestCostRowCacheCounters(t *testing.T) {
	nw := buildNet(t, topo.NSFNET(), 4, 1)
	e, err := New(nw, &Options{CacheSize: 1}) // plain: 1 × TreePays = 2 rows
	if err != nil {
		t.Fatal(err)
	}
	if c := e.CacheStats().Capacity; c != 2 {
		t.Fatalf("capacity %d, want 2", c)
	}
	if _, err := e.CostsFrom(0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CostsFrom(0); err != nil {
		t.Fatal(err)
	}
	cs := e.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("after repeat lookup: hits=%d misses=%d, want 1/1", cs.Hits, cs.Misses)
	}
	// Fill beyond capacity 2 to force an eviction.
	for _, src := range []int{1, 2} {
		if _, err := e.CostsFrom(src); err != nil {
			t.Fatal(err)
		}
	}
	cs = e.CacheStats()
	if cs.Evictions == 0 {
		t.Fatalf("no evictions after overfilling capacity-2 cache: %+v", cs)
	}
	if cs.Size > cs.Capacity {
		t.Fatalf("cache size %d exceeds capacity %d", cs.Size, cs.Capacity)
	}
	// A new epoch makes old keys unreachable: same source misses again.
	if _, err := e.RouteAndAllocate(1, 0, 5); err != nil {
		t.Fatal(err)
	}
	before := e.CacheStats().Misses
	if _, err := e.CostsFrom(2); err != nil {
		t.Fatal(err)
	}
	if e.CacheStats().Misses != before+1 {
		t.Fatal("lookup at a new epoch must miss the cache")
	}
}

// TestRouteBatchAnswersFromResidentRow: a source whose cost row is
// resident at this epoch is answered from it whatever its multiplicity —
// one hit per request, no pass, no point query; a source with no row,
// named fewer times than a tree pays for, by point queries, which store
// nothing and count as no lookup; and one named TreePays times by exactly
// one pass. Every way, the cost is a fresh tree's, bit for bit.
func TestRouteBatchAnswersFromResidentRow(t *testing.T) {
	nw := buildNet(t, topo.NSFNET(), 4, 1)
	e, err := New(nw, &Options{Directed: core.DirectedAStar})
	if err != nil {
		t.Fatal(err)
	}
	pays := e.Snapshot().Aux().TreePays(core.DirectedAStar)
	if pays < 3 {
		t.Fatalf("break-even %d: the fixture must let a source repeat below it", pays)
	}
	if _, err := e.CostsFrom(0); err != nil {
		t.Fatal(err)
	}
	reqs := []Request{{From: 0, To: 9}, {From: 0, To: 5}}
	for to := 9; len(reqs) < 2+pays-1; to++ {
		reqs = append(reqs, Request{From: 3, To: to % nw.NumNodes()})
	}
	for to := 0; to < pays; to++ {
		reqs = append(reqs, Request{From: 7, To: to})
	}
	before, routed, passes := e.CacheStats(), counter(e, "engine_routes_total"), treePasses(e)
	out := e.Snapshot().BatchCosts(reqs, 1)
	for _, r := range out {
		if r.Err != nil {
			t.Fatalf("%d->%d: %v", r.From, r.To, r.Err)
		}
		want, err := e.RouteFrom(r.From)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cost != want.Dist(r.To) {
			t.Fatalf("%d->%d costs %v, a fresh tree says %v", r.From, r.To, r.Cost, want.Dist(r.To))
		}
	}
	after := e.CacheStats()
	if after.Hits != before.Hits+2 || after.Misses != before.Misses || after.Size != 1 || after.Lookups != after.Hits+after.Misses {
		t.Fatalf("cache counters %+v → %+v: want two more hits, no miss, no row stored, lookups = hits + misses", before, after)
	}
	if got := counter(e, "engine_routes_total") - routed; got != uint64(pays-1) {
		t.Fatalf("%d point queries ran, want %d (source 3 only)", got, pays-1)
	}
	if got := treePasses(e) - passes - uint64(len(reqs)); got != 1 {
		t.Fatalf("the batch ran %d passes, want 1 (source 7 only)", got)
	}
	row, tree, point := batchSplit(t, "resident row", e)
	if row != 2 || tree != uint64(pays) || point != uint64(pays-1) {
		t.Fatalf("%d requests via a row, %d via a tree and %d by point query, want 2, %d and %d", row, tree, point, pays, pays-1)
	}
}

// TestTreeRescansCounter: the engine's default queue is the bucket queue,
// and engine_tree_rescans_total is its runtime gate — 0 on a network
// whose weight range fits the bucket window, positive on one whose range
// does not, where trees still cost what the binary heap's cost. A cost
// row's pass is the same pass and counts the same rescans.
func TestTreeRescansCounter(t *testing.T) {
	rescans := func(e *Engine) uint64 { return e.Metrics().Snapshot()["engine_tree_rescans_total"].(uint64) }
	fits := buildNet(t, topo.NSFNET(), 4, 1)
	rng := rand.New(rand.NewSource(5))
	wide := wdm.NewNetwork(fits.NumNodes(), fits.K())
	wide.SetConverter(fits.Converter())
	for _, l := range fits.Links() {
		chans := append([]wdm.Channel(nil), l.Channels...)
		for i := range chans {
			chans[i].Weight = math.Pow(10, -3+6*rng.Float64())
		}
		if _, err := wide.AddLink(l.From, l.To, chans); err != nil {
			t.Fatal(err)
		}
	}
	for name, tc := range map[string]struct {
		nw      *wdm.Network
		rescans bool
	}{"fits": {fits, false}, "wide": {wide, true}} {
		e, err := New(tc.nw, nil)
		if err != nil {
			t.Fatal(err)
		}
		heap, err := New(tc.nw, &Options{Queue: graph.QueueBinary})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < tc.nw.NumNodes(); s++ {
			st, err := e.RouteFrom(s)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := heap.RouteFrom(s)
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < tc.nw.NumNodes(); d++ {
				if math.Float64bits(st.Dist(d)) != math.Float64bits(ref.Dist(d)) {
					t.Fatalf("%s %d->%d: %v on buckets, %v on the heap", name, s, d, st.Dist(d), ref.Dist(d))
				}
			}
		}
		trees := rescans(e)
		if (trees > 0) != tc.rescans {
			t.Errorf("%s: engine_tree_rescans_total = %d", name, trees)
		}
		for s := 0; s < tc.nw.NumNodes(); s++ {
			if _, err := e.CostsFrom(s); err != nil {
				t.Fatal(err)
			}
		}
		if got := rescans(e) - trees; got != trees {
			t.Errorf("%s: the cost rows' passes counted %d rescans, the trees' %d", name, got, trees)
		}
		if got := rescans(heap); got != 0 {
			t.Errorf("%s: binary-queue engine counted %d rescans", name, got)
		}
	}
}

func TestCacheDisabled(t *testing.T) {
	nw := buildNet(t, topo.NSFNET(), 4, 1)
	e, err := New(nw, &Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.CostsFrom(0); err != nil {
			t.Fatal(err)
		}
	}
	if cs := e.CacheStats(); cs != (CacheStats{}) {
		t.Fatalf("disabled cache reported stats %+v", cs)
	}
}

func TestFailRepairLink(t *testing.T) {
	nw := buildNet(t, topo.NSFNET(), 4, 1)
	e, err := New(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteAndAllocate(1, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	cut := res.Path.Hops[0].Link
	riders, err := e.FailLink(cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(riders) != 1 || riders[0] != 1 {
		t.Fatalf("riders of failed link = %v, want [1]", riders)
	}
	if !e.LinkFailed(cut) {
		t.Fatal("LinkFailed false after FailLink")
	}
	if got := failedLinks(e); len(got) != 1 || got[0] != cut {
		t.Fatalf("failed links = %v, want [%d]", got, cut)
	}
	// The failed link's channels are gone from the snapshot.
	if got := len(e.Snapshot().Network().Link(cut).Channels); got != 0 {
		t.Fatalf("failed link still offers %d channels", got)
	}
	// Allocating over the failed link conflicts.
	if err := e.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Allocate(2, res.Path); !errors.Is(err, ErrConflict) {
		t.Fatalf("allocate across failed link: got %v", err)
	}
	// Failing again is a no-op; repairing restores the channels.
	if riders, err := e.FailLink(cut); err != nil || riders != nil {
		t.Fatalf("re-fail: riders=%v err=%v", riders, err)
	}
	if err := e.RepairLink(cut); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Snapshot().Network().TotalChannels(), nw.TotalChannels(); got != want {
		t.Fatalf("residual after repair has %d channels, want %d", got, want)
	}
	if err := e.Allocate(2, res.Path); err != nil {
		t.Fatalf("allocate after repair: %v", err)
	}
}

func TestAllocateRejectsBadPaths(t *testing.T) {
	nw := buildNet(t, topo.NSFNET(), 4, 1)
	e, err := New(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Allocate(1, nil); err == nil {
		t.Fatal("nil path accepted")
	}
	if err := e.Allocate(1, &wdm.Semilightpath{Hops: []wdm.Hop{{Link: 9999, Wavelength: 0}}}); !errors.Is(err, ErrLinkRange) {
		t.Fatalf("out-of-range link: got %v", err)
	}
	if err := e.Allocate(1, &wdm.Semilightpath{Hops: []wdm.Hop{{Link: 0, Wavelength: wdm.Wavelength(nw.K())}}}); err == nil {
		t.Fatal("wavelength not installed on the link accepted")
	}
	// A path claiming the same channel twice must be rejected whole.
	res, err := e.Route(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	h := res.Path.Hops[0]
	dup := &wdm.Semilightpath{Hops: []wdm.Hop{h, h}}
	if err := e.Allocate(1, dup); !errors.Is(err, ErrConflict) {
		t.Fatalf("duplicate-channel path: got %v", err)
	}
	if e.HeldChannels() != 0 {
		t.Fatal("rejected allocation leaked claims")
	}
}

// TestRouteBatchPinsOneEpoch: every answer of a batch is the pinned
// epoch's, and the batch splits as priced — source 0, named 13 times, is
// past the break-even of either mode and gets one tree, built by exactly
// one of the four workers; the 13 sources named once get point queries.
// Under plain that is the rule the engine has always had. The batch
// neither reads nor stores a row.
func TestRouteBatchPinsOneEpoch(t *testing.T) {
	nw := buildNet(t, topo.NSFNET(), 4, 1)
	for _, mode := range []core.DirectedMode{core.DirectedPlain, core.DirectedAStar} {
		e, err := New(nw, &Options{Directed: mode})
		if err != nil {
			t.Fatal(err)
		}
		var reqs []Request
		for tgt := 1; tgt < nw.NumNodes(); tgt++ {
			reqs = append(reqs, Request{From: 0, To: tgt}) // shared source: one tree
			reqs = append(reqs, Request{From: tgt, To: 0}) // unique sources: targeted Route
		}
		out := e.Snapshot().RouteBatch(reqs, 4)
		if len(out) != len(reqs) {
			t.Fatalf("%s: got %d results for %d requests", mode, len(out), len(reqs))
		}
		cs, routed, passes := e.CacheStats(), counter(e, "engine_routes_total"), treePasses(e)
		// Cross-check every answer against a direct query on the same epoch.
		snap := e.Snapshot()
		for i, r := range out {
			if r.Err != nil {
				t.Fatalf("%s: request %d (%d->%d): %v", mode, i, r.From, r.To, r.Err)
			}
			want, err := snap.Route(r.From, r.To)
			if err != nil {
				t.Fatal(err)
			}
			if r.Result.Cost != want.Cost {
				t.Fatalf("%s: batch answer %d->%d cost %v, direct %v", mode, r.From, r.To, r.Result.Cost, want.Cost)
			}
			if err := r.Result.Path.Validate(snap.Network(), r.From, r.To); r.From != r.To && err != nil {
				t.Fatalf("%s: batch path %d->%d invalid: %v", mode, r.From, r.To, err)
			}
		}
		if passes != 1 || cs != (CacheStats{Capacity: cs.Capacity}) {
			t.Fatalf("%s: %d passes, cache counters %+v; want one tree and the cache untouched", mode, passes, cs)
		}
		if routed != 13 {
			t.Fatalf("%s: %d point queries, want one per unique source", mode, routed)
		}
		if tree, point := counter(e, "engine_batch_tree_requests_total"), counter(e, "engine_batch_point_requests_total"); tree != 13 || point != 13 {
			t.Fatalf("%s: %d requests via a tree and %d by point query, want 13 and 13", mode, tree, point)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	nw := buildNet(t, topo.NSFNET(), 4, 1)
	e, err := New(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAndAllocate(1, 0, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAndAllocate(2, 3, 11); err != nil {
		t.Fatal(err)
	}
	if err := e.Release(1); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Allocations != 2 || s.Releases != 1 || s.ActiveOwners != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Epoch != 3 || s.Rebuilds != 4 { // +1: the epoch-0 build
		t.Fatalf("epoch/rebuilds = %d/%d, want 3/4", s.Epoch, s.Rebuilds)
	}
}

// TestProtectedAndKShortestOnSnapshot smoke-tests the remaining query
// surface against a residual snapshot.
func TestProtectedAndKShortestOnSnapshot(t *testing.T) {
	nw := buildNet(t, topo.NSFNET(), 4, 1)
	e, err := New(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAndAllocate(1, 0, 9); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	paths, err := e.KShortest(0, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	best, err := snap.Route(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if paths[0].Cost != best.Cost {
		t.Fatalf("KShortest[0] cost %v != Route cost %v", paths[0].Cost, best.Cost)
	}
	pair, err := e.RouteProtected(0, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !core.LinkDisjoint(pair.Primary.Path, pair.Backup.Path) {
		t.Fatal("protected pair shares a link")
	}
}

// TestProtectOptionsReusedAcrossEpochs: one *core.ProtectOptions passed
// to RouteProtected at every epoch. The snapshot fills its own search
// options into a copy, so the caller's struct never carries one epoch's
// bound rows into the next: after 1→2 is repaired the primary is the
// cheap route again, as with nil options.
func TestProtectOptionsReusedAcrossEpochs(t *testing.T) {
	nw := wdm.NewNetwork(5, 1)
	var mid int
	for _, l := range []struct {
		from, to int
		w        float64
	}{{0, 1, 1}, {1, 2, 1}, {0, 3, 10}, {3, 2, 10}, {0, 4, 20}, {4, 2, 20}} {
		id, err := nw.AddLink(l.from, l.to, []wdm.Channel{{Lambda: 0, Weight: l.w}})
		if err != nil {
			t.Fatal(err)
		}
		if l.from == 1 {
			mid = id
		}
	}
	e, err := New(nw, &Options{Directed: core.DirectedAStar})
	if err != nil {
		t.Fatal(err)
	}
	po := &core.ProtectOptions{}
	if _, err := e.FailLink(mid); err != nil {
		t.Fatal(err)
	}
	for ask := 0; ask < 3; ask++ {
		pair, err := e.RouteProtected(0, 2, po)
		if err != nil || pair.Primary.Cost != 20 || pair.Backup.Cost != 40 {
			t.Fatalf("1→2 failed, ask %d: %+v, %v", ask, pair, err)
		}
	}
	if err := e.RepairLink(mid); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]*core.ProtectOptions{"nil": nil, "reused": po} {
		pair, err := e.RouteProtected(0, 2, opts)
		if err != nil {
			t.Fatalf("%s options: %v", name, err)
		}
		if pair.Primary.Cost != 2 || pair.Backup.Cost != 20 {
			t.Fatalf("%s options after repair: primary %v, backup %v; want 2 and 20", name, pair.Primary.Cost, pair.Backup.Cost)
		}
	}
	if po.Route != nil {
		t.Fatal("RouteProtected wrote its options into the caller's struct")
	}
}

// failedLinks lists the links e has out of service, ascending.
func failedLinks(e *Engine) []int {
	var out []int
	for l := 0; l < e.Snapshot().Network().NumLinks(); l++ {
		if e.LinkFailed(l) {
			out = append(out, l)
		}
	}
	return out
}
