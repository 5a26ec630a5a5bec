package core_test

import (
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/graph"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

// These tests follow a delta chain to where the engine now takes it — no
// depth cap, thousands of epochs on one root compile — and look at the
// compiled graph itself through export_test.go, which is why they live
// here and not beside the engine's own differential tests.

// sparse100 is the whole-stack benchmark's mid_churn instance shape:
// wdmserve's `-topo sparse -n 100 -k 8` defaults.
func sparse100(t testing.TB) *wdm.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	nw, err := workload.Build(topo.RandomSparse(100, 4, 6, rng), workload.Spec{
		K: 8, AvailProb: 0.6, Conv: workload.ConvUniform, ConvCost: 0.5,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// churner mutates an engine at random — allocate, release, fail, repair —
// and keeps its own record of what is held and what is failed, from the
// paths the engine returned, never from the engine's tables.
type churner struct {
	e      *engine.Engine
	rng    *rand.Rand
	held   map[engine.Channel]bool
	leases map[int64]*wdm.Semilightpath
	live   []int64
	failed map[int]bool
}

func newChurner(t testing.TB, base *wdm.Network, seed int64) *churner {
	t.Helper()
	e, err := engine.New(base, &engine.Options{Directed: core.DirectedAStar})
	if err != nil {
		t.Fatal(err)
	}
	return &churner{
		e: e, rng: rand.New(rand.NewSource(seed)),
		held: make(map[engine.Channel]bool), leases: make(map[int64]*wdm.Semilightpath),
		failed: make(map[int]bool),
	}
}

// mutate applies one random mutation; a blocked arrival publishes nothing.
// Occupancy hovers around target leases.
func (c *churner) mutate(t testing.TB, target int) {
	t.Helper()
	base := c.e.Base()
	switch r := c.rng.Float64(); {
	case r < 0.04:
		link := c.rng.Intn(base.NumLinks())
		if c.failed[link] {
			if err := c.e.RepairLink(link); err != nil {
				t.Fatal(err)
			}
			delete(c.failed, link)
		} else {
			if _, err := c.e.FailLink(link); err != nil {
				t.Fatal(err)
			}
			c.failed[link] = true
		}
	case len(c.live) > 0 && (r < 0.08 || c.rng.Intn(2*target) < len(c.live)):
		i := c.rng.Intn(len(c.live))
		owner := c.live[i]
		c.live[i] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
		if err := c.e.Release(owner); err != nil {
			t.Fatal(err)
		}
		for _, h := range c.leases[owner].Hops {
			delete(c.held, engine.Channel{Link: h.Link, Lambda: h.Wavelength})
		}
		delete(c.leases, owner)
	default:
		n := base.NumNodes()
		s, d := c.rng.Intn(n), c.rng.Intn(n)
		if s == d {
			return
		}
		owner := c.e.ReserveOwner()
		res, err := c.e.RouteAndAllocate(owner, s, d)
		if errors.Is(err, core.ErrNoRoute) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range res.Path.Hops {
			c.held[engine.Channel{Link: h.Link, Lambda: h.Wavelength}] = true
		}
		c.leases[owner] = res.Path
		c.live = append(c.live, owner)
	}
}

// residual rebuilds the free-channel network from the churner's own
// record, link by link, sharing nothing with the engine's patch chain.
func (c *churner) residual(t testing.TB) *wdm.Network {
	t.Helper()
	base := c.e.Base()
	res := wdm.NewNetwork(base.NumNodes(), base.K())
	for _, l := range base.Links() {
		var free []wdm.Channel
		for _, ch := range l.Channels {
			if !c.failed[l.ID] && !c.held[engine.Channel{Link: l.ID, Lambda: ch.Lambda}] {
				free = append(free, ch)
			}
		}
		if _, err := res.AddLink(l.From, l.To, free); err != nil {
			t.Fatal(err)
		}
	}
	res.SetConverter(base.Converter())
	return res
}

// checkAgainstFresh holds the engine's current snapshot — the end of one
// unbroken delta chain — against a from-scratch build of the churner's
// residual: the residual channel for channel, the compiled graph arc for
// arc (node by node, same order, same weights and tags).
func (c *churner) checkAgainstFresh(t testing.TB) {
	t.Helper()
	snap := c.e.Snapshot()
	want := c.residual(t)
	got := snap.Network()
	if got.TotalChannels() != want.TotalChannels() {
		t.Fatalf("epoch %d: residual carries %d channels, model %d", snap.Epoch(), got.TotalChannels(), want.TotalChannels())
	}
	for id := 0; id < want.NumLinks(); id++ {
		g, w := got.Link(id), want.Link(id)
		if g.From != w.From || g.To != w.To || len(g.Channels) != len(w.Channels) {
			t.Fatalf("epoch %d: link %d is %+v, model %+v", snap.Epoch(), id, *g, *w)
		}
		for i := range w.Channels {
			if g.Channels[i] != w.Channels[i] {
				t.Fatalf("epoch %d: link %d channel %d = %+v, model %+v", snap.Epoch(), id, i, g.Channels[i], w.Channels[i])
			}
		}
	}
	fresh, err := core.NewAuxWithLayout(c.e.Base(), want)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.AuxDiff(snap.Aux(), fresh); err != nil {
		t.Fatalf("epoch %d: chained graph differs from a fresh compile: %v", snap.Epoch(), err)
	}
	if st := c.e.Stats(); st.FullRebuilds != 1 || st.DeltaApplies != st.Epoch || uint64(snap.Aux().DeltaDepth()) != st.Epoch {
		t.Fatalf("epoch %d: %d full rebuilds, %d delta applies, chain depth %d — want one unbroken chain",
			st.Epoch, st.FullRebuilds, st.DeltaApplies, snap.Aux().DeltaDepth())
	}
}

// TestLongChainMatchesFreshCompile: 3000+ epochs of churn on sparse n=100
// k=8 under default options, checked every 250 epochs and at the end.
func TestLongChainMatchesFreshCompile(t *testing.T) {
	c := newChurner(t, sparse100(t), 16)
	const epochs = 3200
	for next := uint64(250); c.e.Epoch() < epochs; {
		c.mutate(t, 120)
		if c.e.Epoch() >= next {
			c.checkAgainstFresh(t)
			next += 250
		}
	}
	c.checkAgainstFresh(t)
}

// snapshotHash folds everything a pinned snapshot owns or shares — every
// out-segment of its compiled graph, every link's channel list — into one
// value.
func snapshotHash(s *engine.Snapshot) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	g := core.Graph(s.Aux())
	for u := 0; u < g.NumNodes(); u++ {
		put(uint64(len(g.Out(u))))
		for _, a := range g.Out(u) {
			put(uint64(uint32(a.To))<<32 | uint64(uint32(a.Tag)))
			put(math.Float64bits(a.Weight))
		}
	}
	nw := s.Network()
	for id := 0; id < nw.NumLinks(); id++ {
		l := nw.Link(id)
		put(uint64(l.From)<<32 | uint64(l.To))
		put(uint64(len(l.Channels)))
		for _, ch := range l.Channels {
			put(uint64(ch.Lambda))
			put(math.Float64bits(ch.Weight))
		}
	}
	put(uint64(nw.TotalChannels()))
	return h.Sum64()
}

// TestSnapshotIsolationAcrossPages: a pinned snapshot shares spine pages,
// link pages and arc arenas with every epoch published after it. 2000
// further epochs — each copying the pages it writes — must leave it
// exactly as it was, while two readers route on it throughout.
func TestSnapshotIsolationAcrossPages(t *testing.T) {
	c := newChurner(t, sparse100(t), 61)
	for c.e.Epoch() < 400 {
		c.mutate(t, 120)
	}
	pinned := c.e.Snapshot()
	before := snapshotHash(pinned)
	n := pinned.Network().NumNodes()
	want := make([][]float64, n)
	for s := range want {
		tree, err := pinned.Aux().RouteFrom(s, &core.Options{Queue: graph.QueueBinary})
		if err != nil {
			t.Fatal(err)
		}
		want[s] = make([]float64, n)
		for d := range want[s] {
			want[s][d] = tree.Dist(d)
		}
	}

	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			// Fixed work, not a done flag: on one CPU a flag could be set
			// before a reader ran at all.
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < 600; i++ {
				s, d := rng.Intn(n), rng.Intn(n)
				if i%4 == 0 {
					tree, err := pinned.RouteFrom(s)
					if err != nil {
						t.Errorf("reader %d: routefrom %d: %v", r, s, err)
						return
					}
					if math.Float64bits(tree.Dist(d)) != math.Float64bits(want[s][d]) {
						t.Errorf("reader %d: tree dist %d→%d = %v, pinned %v", r, s, d, tree.Dist(d), want[s][d])
						return
					}
					continue
				}
				res, err := pinned.Route(s, d)
				switch {
				case s == d:
				case errors.Is(err, core.ErrNoRoute):
					if graph.Finite(want[s][d]) {
						t.Errorf("reader %d: %d→%d blocked, pinned cost %v", r, s, d, want[s][d])
						return
					}
				case err != nil:
					t.Errorf("reader %d: route %d→%d: %v", r, s, d, err)
					return
				case math.Float64bits(res.Cost) != math.Float64bits(want[s][d]):
					t.Errorf("reader %d: %d→%d costs %v, pinned %v", r, s, d, res.Cost, want[s][d])
					return
				}
			}
		}(r)
	}
	for c.e.Epoch() < 2400 {
		c.mutate(t, 120)
	}
	readers.Wait()
	if after := snapshotHash(pinned); after != before {
		t.Fatalf("pinned snapshot changed under %d later epochs: hash %x → %x", c.e.Epoch()-pinned.Epoch(), before, after)
	}
	c.checkAgainstFresh(t)
}
