package lightpath

// Tests of online circuit admission (admission.go). They sit in the
// package itself so they can read the engine's claim table and reseed
// random fit.

import (
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

// twoPathNet: 0→1 on λ0 only, plus a detour 0→2→1 on λ1 only.
func twoPathNet(t *testing.T) *wdm.Network {
	t.Helper()
	nw := wdm.NewNetwork(3, 2)
	mustLink(t, nw, 0, 1, wdm.Channel{Lambda: 0, Weight: 1})
	mustLink(t, nw, 0, 2, wdm.Channel{Lambda: 1, Weight: 1})
	mustLink(t, nw, 2, 1, wdm.Channel{Lambda: 1, Weight: 1})
	nw.SetConverter(wdm.UniformConversion{C: 0.1})
	return nw
}

func mustLink(t *testing.T, nw *wdm.Network, u, v int, cs ...wdm.Channel) int {
	t.Helper()
	id, err := nw.AddLink(u, v, cs)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestNewManagerNil(t *testing.T) {
	if _, err := NewSessionManager(nil); !errors.Is(err, engine.ErrNilNetwork) {
		t.Fatalf("nil: %v", err)
	}
}

func TestAdmitClaimsChannels(t *testing.T) {
	m, err := NewSessionManager(twoPathNet(t))
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Admit(0, 1)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if c.Cost != 1 || c.Path.Len() != 1 {
		t.Fatalf("first circuit should take the direct link: %+v", c)
	}
	if !slices.Contains(m.eng.OwnerChannels(int64(c.ID)), engine.Channel{Link: 0, Lambda: 0}) {
		t.Fatal("direct channel not claimed")
	}
	if m.ActiveCircuits() != 1 {
		t.Fatalf("active = %d", m.ActiveCircuits())
	}
	if got := m.Utilization(); got != 1.0/3.0 {
		t.Fatalf("utilization = %v, want 1/3", got)
	}

	// Second circuit must detour: the direct channel is held.
	c2, err := m.Admit(0, 1)
	if err != nil {
		t.Fatalf("second Admit: %v", err)
	}
	if c2.Path.Len() != 2 {
		t.Fatalf("second circuit should detour via 2: %+v", c2.Path)
	}

	// Third is blocked: all channels held.
	if _, err := m.Admit(0, 1); !errors.Is(err, ErrBlocked) {
		t.Fatalf("third Admit: %v, want ErrBlocked", err)
	}
	st := m.Stats()
	if st.Admitted != 2 || st.Blocked != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if bp := st.BlockingProbability(); bp < 0.333 || bp > 0.334 {
		t.Fatalf("blocking probability = %v", bp)
	}
}

func TestReleaseRestoresCapacity(t *testing.T) {
	m, err := NewSessionManager(twoPathNet(t))
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Admit(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(c.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if m.ActiveCircuits() != 0 || m.Utilization() != 0 {
		t.Fatal("release did not free channels")
	}
	// The direct path is available again.
	c2, err := m.Admit(0, 1)
	if err != nil || c2.Path.Len() != 1 {
		t.Fatalf("re-admit after release: %+v %v", c2, err)
	}
	if err := m.Release(SessionID(999)); !errors.Is(err, engine.ErrUnknownOwner) {
		t.Fatalf("unknown release: %v", err)
	}
	if err := m.Release(c.ID); !errors.Is(err, engine.ErrUnknownOwner) {
		t.Fatalf("double release: %v", err)
	}
}

func TestResidualKeepsLinkIDsAligned(t *testing.T) {
	nw := twoPathNet(t)
	m, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Admit(0, 1); err != nil {
		t.Fatal(err)
	}
	res := m.eng.Snapshot().Network()
	if res.NumLinks() != nw.NumLinks() {
		t.Fatalf("residual has %d links, want %d", res.NumLinks(), nw.NumLinks())
	}
	// Link 0's only channel is held: residual link 0 must be empty.
	if got := len(res.Link(0).Channels); got != 0 {
		t.Fatalf("residual link 0 has %d channels, want 0", got)
	}
	if got := len(res.Link(1).Channels); got != 1 {
		t.Fatalf("residual link 1 has %d channels, want 1", got)
	}
}

func TestStatsZeroTraffic(t *testing.T) {
	if got := (SessionStats{}).BlockingProbability(); got != 0 {
		t.Fatalf("empty blocking probability = %v", got)
	}
}

func TestBlockingMonotoneInLoad(t *testing.T) {
	// Classic sanity law: more offered load → no less blocking.
	tp := topo.Ring(8)
	rng := rand.New(rand.NewSource(4))
	nw, err := workload.Build(tp, workload.Spec{K: 3, AvailProb: 0.7, Conv: workload.ConvUniform, ConvCost: 0.2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	for _, load := range []float64{0.5, 4, 32} {
		m, err := NewSessionManager(nw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateTraffic(m, TrafficConfig{Requests: 600, Load: load, Seed: 9})
		if err != nil {
			t.Fatalf("load %v: %v", load, err)
		}
		bp := res.Stats.BlockingProbability()
		if bp < prev-0.02 { // small tolerance for stochastic noise
			t.Fatalf("blocking decreased with load: %v after %v", bp, prev)
		}
		prev = bp
		if m.ActiveCircuits() != 0 {
			t.Fatal("simulation should drain all circuits")
		}
		if res.MeanUtilization < 0 || res.MeanUtilization > 1 {
			t.Fatalf("utilization out of range: %v", res.MeanUtilization)
		}
	}
	if prev <= 0 {
		t.Fatal("heavy load should produce some blocking")
	}
}

func TestSimulateTrafficValidation(t *testing.T) {
	m, err := NewSessionManager(twoPathNet(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateTraffic(m, TrafficConfig{Requests: 0, Load: 1}); err == nil {
		t.Fatal("zero requests must fail")
	}
	if _, err := SimulateTraffic(m, TrafficConfig{Requests: 10, Load: 0}); err == nil {
		t.Fatal("zero load must fail")
	}
	one := wdm.NewNetwork(1, 1)
	m1, err := NewSessionManager(one)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateTraffic(m1, TrafficConfig{Requests: 10, Load: 1}); err == nil {
		t.Fatal("1-node network must fail")
	}
}

func TestSimulateTrafficDeterministic(t *testing.T) {
	tp := topo.Grid(3, 3)
	rng := rand.New(rand.NewSource(5))
	nw, err := workload.Build(tp, workload.RestrictedSpec(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *TrafficResult {
		m, err := NewSessionManager(nw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateTraffic(m, TrafficConfig{Requests: 200, Load: 5, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats != b.Stats || a.PeakActive != b.PeakActive || a.MeanCost != b.MeanCost {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

// TestPeakActive: the simulation's PeakActive is the most circuits held
// at once. twoPathNet has three single-channel links, so at most three
// circuits fit at once; under a heavy load the simulation reaches all
// three, and a peak is never below the time-averaged mean.
func TestPeakActive(t *testing.T) {
	m, err := NewSessionManager(twoPathNet(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateTraffic(m, TrafficConfig{Requests: 300, Load: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakActive != 3 || float64(res.PeakActive) < res.MeanActive {
		t.Fatalf("peak = %d (mean %.2f), want 3", res.PeakActive, res.MeanActive)
	}
	if m.ActiveCircuits() != 0 {
		t.Fatal("simulation should drain all circuits")
	}
}

func BenchmarkAdmitRelease(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	nw, err := workload.Build(topo.NSFNET(), workload.RestrictedSpec(8), rng)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewSessionManager(nw)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := m.Admit(0, 13)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Release(c.ID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateTraffic(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	nw, err := workload.Build(topo.NSFNET(), workload.RestrictedSpec(6), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := NewSessionManager(nw)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := SimulateTraffic(m, TrafficConfig{Requests: 500, Load: 10, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyOptimal.String() != "optimal" || PolicyFirstFit.String() != "first-fit" {
		t.Fatal("policy names wrong")
	}
	if !strings.Contains(AdmissionPolicy(9).String(), "9") {
		t.Fatal("unknown policy should show its number")
	}
}

func TestAdmitPolicyDispatch(t *testing.T) {
	m, err := NewSessionManager(twoPathNet(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AdmitPolicy(0, 1, AdmissionPolicy(42)); err == nil {
		t.Fatal("unknown policy must fail")
	}
	c, err := m.AdmitPolicy(0, 1, 0) // zero value = optimal
	if err != nil || c == nil {
		t.Fatalf("zero policy: %v %v", c, err)
	}
}

func TestFirstFitPicksLowestWavelength(t *testing.T) {
	// One link with λ0 and λ1 free: first-fit must choose λ0.
	nw := wdm.NewNetwork(2, 2)
	mustLink(t, nw, 0, 1,
		wdm.Channel{Lambda: 0, Weight: 5},
		wdm.Channel{Lambda: 1, Weight: 1}) // λ1 is cheaper, first-fit ignores that
	m, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.AdmitPolicy(0, 1, PolicyFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if c.Path.Hops[0].Wavelength != 0 {
		t.Fatalf("first-fit picked λ%d, want λ0", c.Path.Hops[0].Wavelength)
	}
	if c.Cost != 5 {
		t.Fatalf("cost = %v, want 5", c.Cost)
	}
}

// TestFirstFitIgnoresChannelOrder: the free list is the first hop's
// channels found on every later hop, sorted, so first-fit picks the
// lowest common wavelength however the links list their channels.
func TestFirstFitIgnoresChannelOrder(t *testing.T) {
	nw := wdm.NewNetwork(3, 4)
	mustLink(t, nw, 0, 1,
		wdm.Channel{Lambda: 3, Weight: 1}, wdm.Channel{Lambda: 2, Weight: 1}, wdm.Channel{Lambda: 1, Weight: 1})
	mustLink(t, nw, 1, 2,
		wdm.Channel{Lambda: 0, Weight: 1}, wdm.Channel{Lambda: 3, Weight: 1}, wdm.Channel{Lambda: 2, Weight: 1})
	m, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.AdmitPolicy(0, 2, PolicyFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range c.Path.Hops {
		if h.Wavelength != 2 {
			t.Fatalf("first-fit routed %v, want λ2 on both hops", c.Path.Hops)
		}
	}
}

func TestFirstFitWavelengthContinuityBlocking(t *testing.T) {
	// Chain 0→1→2: link 0 has λ0 only, link 1 has λ1 only. A converter
	// exists, so optimal admission succeeds — but first-fit needs one
	// continuous wavelength and must block.
	nw := wdm.NewNetwork(3, 2)
	mustLink(t, nw, 0, 1, wdm.Channel{Lambda: 0, Weight: 1})
	mustLink(t, nw, 1, 2, wdm.Channel{Lambda: 1, Weight: 1})
	nw.SetConverter(wdm.UniformConversion{C: 0.1})

	ff, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ff.AdmitPolicy(0, 2, PolicyFirstFit); !errors.Is(err, ErrBlocked) {
		t.Fatalf("first-fit should block on discontinuity: %v", err)
	}
	opt, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.AdmitPolicy(0, 2, PolicyOptimal); err != nil {
		t.Fatalf("optimal should admit via conversion: %v", err)
	}
}

func TestFirstFitNoPhysicalRoute(t *testing.T) {
	nw := wdm.NewNetwork(2, 1)
	mustLink(t, nw, 1, 0, wdm.Channel{Lambda: 0, Weight: 1}) // only wrong direction
	m, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AdmitPolicy(0, 1, PolicyFirstFit); !errors.Is(err, ErrBlocked) {
		t.Fatalf("no route: %v", err)
	}
	if m.Stats().Blocked != 1 {
		t.Fatal("blocking not counted")
	}
}

func TestFirstFitReleaseCycle(t *testing.T) {
	nw := wdm.NewNetwork(2, 1)
	mustLink(t, nw, 0, 1, wdm.Channel{Lambda: 0, Weight: 1})
	m, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.AdmitPolicy(0, 1, PolicyFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	// Channel now held: a second first-fit admission must block.
	if _, err := m.AdmitPolicy(0, 1, PolicyFirstFit); !errors.Is(err, ErrBlocked) {
		t.Fatalf("expected blocking: %v", err)
	}
	if err := m.Release(c.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AdmitPolicy(0, 1, PolicyFirstFit); err != nil {
		t.Fatalf("re-admission after release: %v", err)
	}
}

// TestOptimalNeverBlocksMoreThanFirstFit: at matched load and seed, the
// optimal conversion-aware policy's blocking is no worse than first-fit
// on converter-equipped networks.
func TestOptimalNeverBlocksMoreThanFirstFit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tp := topo.NSFNET()
	nw, err := workload.Build(tp, workload.Spec{
		K: 4, AvailProb: 0.5, Conv: workload.ConvUniform, ConvCost: 0.2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p AdmissionPolicy) float64 {
		m, err := NewSessionManager(nw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateTraffic(m, TrafficConfig{Requests: 800, Load: 20, Seed: 5, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.BlockingProbability()
	}
	opt := run(PolicyOptimal)
	ff := run(PolicyFirstFit)
	// Not a theorem under dynamic traffic (admissions change the future),
	// but with a converter-rich network the gap is large and stable.
	if opt > ff {
		t.Fatalf("optimal blocking %v > first-fit %v", opt, ff)
	}
	if ff == 0 {
		t.Fatal("expected some first-fit blocking at load 20")
	}
}

func TestFirstFitTrivialSameNode(t *testing.T) {
	m, err := NewSessionManager(twoPathNet(t))
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.AdmitPolicy(1, 1, PolicyFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if c.Path.Len() != 0 || c.Cost != 0 {
		t.Fatalf("trivial circuit: %+v", c)
	}
}

// twoLinkChain builds 0→1→2 with three wavelengths everywhere, unit
// weights.
func twoLinkChain(t *testing.T) *wdm.Network {
	t.Helper()
	nw := wdm.NewNetwork(3, 3)
	for _, uv := range [][2]int{{0, 1}, {1, 2}} {
		mustLink(t, nw, uv[0], uv[1],
			wdm.Channel{Lambda: 0, Weight: 1},
			wdm.Channel{Lambda: 1, Weight: 1},
			wdm.Channel{Lambda: 2, Weight: 1})
	}
	return nw
}

func TestPolicyStringsExtended(t *testing.T) {
	want := map[AdmissionPolicy]string{
		PolicyMostUsed:  "most-used",
		PolicyLeastUsed: "least-used",
		PolicyRandomFit: "random-fit",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

func TestMostUsedPacks(t *testing.T) {
	nw := twoLinkChain(t)
	m, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy λ1 on the first link only (a one-hop circuit).
	seed, err := m.AdmitPolicy(0, 1, PolicyFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if seed.Path.Hops[0].Wavelength != 0 {
		t.Fatalf("seed should take λ0 (first fit): %+v", seed.Path.Hops)
	}
	// A 1→2 circuit: λ0,λ1,λ2 all free on link 1. Most-used must pick
	// λ0 (usage 1); least-used would pick λ1 or λ2 (usage 0).
	c, err := m.AdmitPolicy(1, 2, PolicyMostUsed)
	if err != nil {
		t.Fatal(err)
	}
	if c.Path.Hops[0].Wavelength != 0 {
		t.Fatalf("most-used picked λ%d, want λ0", c.Path.Hops[0].Wavelength)
	}
}

// TestUsageRankedAdmitIndependentOfK: a most-used or least-used
// admission ranks only the route's free wavelengths, so admitting and
// releasing one circuit allocates the same bytes whatever the
// wavelength count. Every NSFNET link carries λ0 and three more of
// eight wavelengths spread evenly over [0, k), so the admissions are
// the same at either k.
func TestUsageRankedAdmitIndependentOfK(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const ops = 50
	for _, policy := range []AdmissionPolicy{PolicyMostUsed, PolicyLeastUsed} {
		perOp := make(map[int]uint64)
		for _, k := range []int{8, 1 << 17} {
			rng := rand.New(rand.NewSource(9))
			tp := topo.NSFNET()
			nw := wdm.NewNetwork(tp.N, k)
			for _, l := range tp.Edges {
				chans := []wdm.Channel{{Lambda: 0, Weight: 1}}
				for _, i := range rng.Perm(7)[:3] {
					chans = append(chans, wdm.Channel{Lambda: wdm.Wavelength((i + 1) * k / 8), Weight: 1 + rng.Float64()})
				}
				mustLink(t, nw, l[0], l[1], chans...)
			}
			nw.SetConverter(wdm.UniformConversion{C: 0.5})
			m, err := NewSessionManager(nw)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.AdmitPolicy(9, 0, PolicyFirstFit); err != nil { // usage to rank by, on the reverse links
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < ops; i++ {
				c, err := m.AdmitPolicy(0, 9, policy)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Release(c.ID); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perOp[k] = (after.TotalAlloc - before.TotalAlloc) / ops
			t.Logf("%v, k=%d: %d B per admit+release", policy, k, perOp[k])
		}
		if perOp[1<<17] > perOp[8]*5/4 {
			t.Errorf("%v: admit+release allocates %d B at k=2^17, over 1.25 × the %d B at k=8",
				policy, perOp[1<<17], perOp[8])
		}
	}
}

func TestLeastUsedSpreads(t *testing.T) {
	nw := twoLinkChain(t)
	m, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AdmitPolicy(0, 1, PolicyFirstFit); err != nil { // occupies λ0 on link 0
		t.Fatal(err)
	}
	c, err := m.AdmitPolicy(1, 2, PolicyLeastUsed)
	if err != nil {
		t.Fatal(err)
	}
	if c.Path.Hops[0].Wavelength == 0 {
		t.Fatal("least-used should avoid the busy λ0")
	}
}

func TestRandomFitDeterministicPerSeed(t *testing.T) {
	pick := func(seed int64) wdm.Wavelength {
		nw := twoLinkChain(t)
		m, err := NewSessionManager(nw)
		if err != nil {
			t.Fatal(err)
		}
		m.rng = rand.New(rand.NewSource(seed))
		c, err := m.AdmitPolicy(0, 2, PolicyRandomFit)
		if err != nil {
			t.Fatal(err)
		}
		return c.Path.Hops[0].Wavelength
	}
	if pick(7) != pick(7) {
		t.Fatal("same seed must pick the same wavelength")
	}
	// Different seeds eventually differ (3 wavelengths, 16 seeds).
	base := pick(0)
	varied := false
	for s := int64(1); s < 16; s++ {
		if pick(s) != base {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("random-fit never varied across seeds")
	}
}

func TestWABlocking(t *testing.T) {
	nw := twoLinkChain(t)
	m, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	// Fill all three wavelengths end to end.
	for i := 0; i < 3; i++ {
		if _, err := m.AdmitPolicy(0, 2, PolicyMostUsed); err != nil {
			t.Fatalf("admission %d: %v", i, err)
		}
	}
	for _, p := range []AdmissionPolicy{PolicyMostUsed, PolicyLeastUsed, PolicyRandomFit} {
		if _, err := m.AdmitPolicy(0, 2, p); !errors.Is(err, ErrBlocked) {
			t.Fatalf("%v on full network: %v, want ErrBlocked", p, err)
		}
	}
}

// TestMostUsedBeatsLeastUsed: the classical WA result — packing (MU)
// yields no more blocking than spreading (LU) under identical traffic.
func TestMostUsedBeatsLeastUsed(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tp := topo.NSFNET()
	nw, err := workload.Build(tp, workload.Spec{K: 6, AvailProb: 0.9, Conv: workload.ConvNone}, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p AdmissionPolicy) float64 {
		m, err := NewSessionManager(nw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateTraffic(m, TrafficConfig{Requests: 1500, Load: 30, Seed: 3, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.BlockingProbability()
	}
	mu, lu := run(PolicyMostUsed), run(PolicyLeastUsed)
	if mu > lu+0.02 { // small stochastic tolerance
		t.Fatalf("most-used blocking %v should not exceed least-used %v", mu, lu)
	}
}

func ringManager(t *testing.T) *SessionManager {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	nw, err := workload.Build(topo.Ring(8), workload.Spec{
		K: 2, AvailProb: 1.0, Conv: workload.ConvUniform, ConvCost: 0.1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAdmitProtected(t *testing.T) {
	m := ringManager(t)
	primary, backup, err := m.AdmitProtected(0, 4)
	if err != nil {
		t.Fatalf("AdmitProtected: %v", err)
	}
	if primary == nil || backup == nil {
		t.Fatal("both circuits should exist")
	}
	if m.ActiveCircuits() != 2 {
		t.Fatalf("active = %d, want 2", m.ActiveCircuits())
	}
	// The two paths are disjoint: they use opposite ring directions, so
	// releasing the primary must free everything.
	if err := m.Release(primary.ID); err != nil {
		t.Fatal(err)
	}
	if m.ActiveCircuits() != 0 {
		t.Fatalf("cascade release failed: %d active", m.ActiveCircuits())
	}
	if m.Utilization() != 0 {
		t.Fatal("channels leaked after cascade release")
	}
	st := m.Stats()
	if st.Admitted != 2 || st.Released != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAdmitProtectedBackupIndependentRelease(t *testing.T) {
	m := ringManager(t)
	primary, backup, err := m.AdmitProtected(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Releasing the backup directly leaves the primary alone.
	if err := m.Release(backup.ID); err != nil {
		t.Fatal(err)
	}
	if m.ActiveCircuits() != 1 {
		t.Fatalf("active = %d, want 1", m.ActiveCircuits())
	}
	if err := m.Release(primary.ID); err != nil {
		t.Fatal(err)
	}
	if m.ActiveCircuits() != 0 {
		t.Fatal("primary release should succeed after backup went away")
	}
}

func TestAdmitProtectedBlocksWhenNoPair(t *testing.T) {
	// A line has no disjoint pair anywhere.
	rng := rand.New(rand.NewSource(7))
	nw, err := workload.Build(topo.Line(4), workload.RestrictedSpec(2), rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AdmitProtected(0, 3); !errors.Is(err, ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
	if m.ActiveCircuits() != 0 || m.Utilization() != 0 {
		t.Fatal("failed protected admission must claim nothing")
	}
	if m.Stats().Blocked != 1 {
		t.Fatal("blocking not counted")
	}
}

func TestAdmitProtectedCapacityExhaustion(t *testing.T) {
	m := ringManager(t)
	// k=2 on a ring: each protected circuit takes both directions. After
	// two protected circuits between the same endpoints (2 wavelengths ×
	// 2 directions), a third must block.
	if _, _, err := m.AdmitProtected(0, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AdmitProtected(0, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AdmitProtected(0, 4); !errors.Is(err, ErrBlocked) {
		t.Fatalf("third protected admission: %v, want ErrBlocked", err)
	}
}

// TestAdmitNodeRangeErrors runs the error returns inside SessionManager.mu
// that are not blocking: an out-of-range endpoint is the engine's error,
// passed through without counting a block or claiming a channel. Running
// them is what makes a re-entry written on those lines hang here.
func TestAdmitNodeRangeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nw, err := workload.Build(topo.NSFNET(), workload.RestrictedSpec(8), rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		admit func() error
	}{
		{"policy", func() error { _, err := m.AdmitPolicy(-1, 0, PolicyOptimal); return err }},
		{"protected", func() error { _, _, err := m.AdmitProtected(0, 99); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.admit(); !errors.Is(err, core.ErrNodeRange) {
				t.Fatalf("err = %v, want core.ErrNodeRange", err)
			}
			if st := m.Stats(); st.Admitted != 0 || st.Blocked != 0 {
				t.Errorf("stats = %+v, want admitted 0 and blocked 0", st)
			}
			if n := m.ActiveCircuits(); n != 0 {
				t.Errorf("active circuits = %d, want 0", n)
			}
		})
	}
}

func TestFailLinkDropsRidingCircuits(t *testing.T) {
	m, err := NewSessionManager(twoPathNet(t))
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Admit(0, 1) // direct link 0 on λ0
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.FailLink(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Dropped) != 1 || report.Dropped[0] != c.ID {
		t.Fatalf("dropped = %v, want [%d]", report.Dropped, c.ID)
	}
	if m.ActiveCircuits() != 0 {
		t.Fatal("circuit should be torn down")
	}
	// New admissions must avoid the failed link (detour via node 2).
	c2, err := m.Admit(0, 1)
	if err != nil {
		t.Fatalf("re-admit: %v", err)
	}
	if c2.Path.Len() != 2 {
		t.Fatalf("route should detour around the cut: %+v", c2.Path)
	}
	for l := 0; l < m.eng.Snapshot().Network().NumLinks(); l++ {
		if m.eng.LinkFailed(l) != (l == 0) {
			t.Fatalf("LinkFailed(%d) = %v with only link 0 cut", l, m.eng.LinkFailed(l))
		}
	}
	// Repair restores the direct route for future circuits.
	_ = m.Release(c2.ID)
	if err := m.RepairLink(0); err != nil {
		t.Fatalf("RepairLink: %v", err)
	}
	c3, err := m.Admit(0, 1)
	if err != nil || c3.Path.Len() != 1 {
		t.Fatalf("after repair: %+v %v", c3, err)
	}
}

func TestFailLinkProtectedSurvives(t *testing.T) {
	m := ringManager(t)
	primary, backup, err := m.AdmitProtected(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the first link of the primary path.
	cut := primary.Path.Hops[0].Link
	report, err := m.FailLink(cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Survived) != 1 || report.Survived[0] != primary.ID {
		t.Fatalf("survived = %v, want [%d]", report.Survived, primary.ID)
	}
	if len(report.Dropped) != 0 {
		t.Fatalf("nothing should drop: %v", report.Dropped)
	}
	// The backup keeps carrying; the primary's channels are freed.
	if m.ActiveCircuits() != 1 {
		t.Fatalf("active = %d, want 1 (the backup)", m.ActiveCircuits())
	}
	if got := m.eng.OwnerChannels(int64(primary.ID)); got != nil {
		t.Fatalf("failed primary channels must be freed, still holds %v", got)
	}
	if err := m.Release(backup.ID); err != nil {
		t.Fatalf("backup should be releasable stand-alone: %v", err)
	}
}

func TestFailLinkHittingBothPathsDropsCircuit(t *testing.T) {
	// Protected pair on a ring; cut one link of EACH path: first cut
	// survives via backup, second cut (now unprotected) drops it.
	m := ringManager(t)
	primary, backup, err := m.AdmitProtected(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FailLink(primary.Path.Hops[0].Link); err != nil {
		t.Fatal(err)
	}
	report, err := m.FailLink(backup.Path.Hops[0].Link)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Dropped) != 1 || report.Dropped[0] != backup.ID {
		t.Fatalf("dropped = %v, want [%d]", report.Dropped, backup.ID)
	}
	if m.ActiveCircuits() != 0 {
		t.Fatal("everything should be down now")
	}
}

func TestFailLinkIdempotentAndBounds(t *testing.T) {
	m, err := NewSessionManager(twoPathNet(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FailLink(99); err == nil {
		t.Fatal("out-of-range link must fail")
	}
	if _, err := m.FailLink(0); err != nil {
		t.Fatal(err)
	}
	report, err := m.FailLink(0) // second cut of the same fiber
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Dropped) != 0 && len(report.Survived) != 0 {
		t.Fatal("re-failing a dead link must be a no-op")
	}
	if err := m.RepairLink(42); err != nil { // unknown repair is a no-op
		t.Fatalf("RepairLink(42): %v", err)
	}
}

func TestFailLinkBlocksWhenCutIsolates(t *testing.T) {
	// One-link network: cutting it makes admission impossible.
	nw := wdm.NewNetwork(2, 1)
	if _, err := nw.AddLink(0, 1, []wdm.Channel{{Lambda: 0, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	m, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FailLink(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Admit(0, 1); !errors.Is(err, ErrBlocked) {
		t.Fatalf("admission over cut fiber: %v, want ErrBlocked", err)
	}
	if _, err := m.AdmitPolicy(0, 1, PolicyFirstFit); !errors.Is(err, ErrBlocked) {
		t.Fatalf("first-fit over cut fiber: %v, want ErrBlocked", err)
	}
}

// TestManagerConcurrentAdmitRelease hammers one Manager from many
// goroutines mixing every admission policy with releases, protected
// pairs, fiber cuts and stats reads. Under -race this proves the
// manager's bookkeeping is serialized correctly; the final invariants
// prove no circuit or channel leaks through the interleavings.
func TestManagerConcurrentAdmitRelease(t *testing.T) {
	nw, err := workload.Build(topo.NSFNET(), workload.Spec{
		K: 8, AvailProb: 0.8, Conv: workload.ConvUniform, ConvCost: 0.5,
	}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	iters := 200
	if testing.Short() {
		iters = 50
	}
	n := nw.NumNodes()
	var wg sync.WaitGroup
	leftover := make([][]SessionID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			var mine []SessionID
			policies := []AdmissionPolicy{PolicyOptimal, PolicyFirstFit, PolicyMostUsed, PolicyLeastUsed, PolicyRandomFit}
			for i := 0; i < iters; i++ {
				s := rng.Intn(n)
				d := rng.Intn(n - 1)
				if d >= s {
					d++
				}
				switch op := rng.Intn(10); {
				case op < 5: // admit with a random policy
					c, err := m.AdmitPolicy(s, d, policies[rng.Intn(len(policies))])
					if err != nil && !errors.Is(err, ErrBlocked) {
						t.Errorf("worker %d: admit: %v", w, err)
						return
					}
					if c != nil {
						mine = append(mine, c.ID)
					}
				case op < 6: // protected pair; track both halves — a fiber
					// cut can promote the backup to stand-alone, after
					// which releasing the primary no longer cascades
					p, b, err := m.AdmitProtected(s, d)
					if err != nil && !errors.Is(err, ErrBlocked) {
						t.Errorf("worker %d: protected: %v", w, err)
						return
					}
					if p != nil {
						mine = append(mine, b.ID, p.ID)
					}
				case op < 9: // release one of ours (cuts may have beaten us to it)
					if len(mine) == 0 {
						continue
					}
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := m.Release(id); err != nil && !errors.Is(err, engine.ErrUnknownOwner) {
						t.Errorf("worker %d: release %d: %v", w, id, err)
						return
					}
				default: // worker 0 cuts fibers; everyone else reads stats
					if w == 0 {
						link := rng.Intn(nw.NumLinks())
						if _, err := m.FailLink(link); err != nil {
							t.Errorf("worker 0: fail %d: %v", link, err)
							return
						}
						if err := m.RepairLink(link); err != nil {
							t.Errorf("worker 0: repair %d: %v", link, err)
							return
						}
					} else {
						_ = m.Stats()
						_ = m.ActiveCircuits()
						_ = m.Utilization()
					}
				}
			}
			leftover[w] = mine
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Drain every circuit the workers still hold. Fiber cuts and backup
	// cascades may have torn some down already; that must surface as
	// engine.ErrUnknownOwner, never as corruption.
	for w, ids := range leftover {
		for _, id := range ids {
			if err := m.Release(id); err != nil && !errors.Is(err, engine.ErrUnknownOwner) {
				t.Fatalf("drain worker %d circuit %d: %v", w, id, err)
			}
		}
	}

	st := m.Stats()
	if got := m.ActiveCircuits(); got != 0 {
		t.Errorf("%d circuits active after drain", got)
	}
	if st.Admitted-st.Released != m.ActiveCircuits() {
		t.Errorf("admitted %d - released %d != active %d", st.Admitted, st.Released, m.ActiveCircuits())
	}
	if held := m.eng.HeldChannels(); held != 0 {
		t.Errorf("%d channels still held after drain", held)
	}
	if st.Admitted == 0 || st.Blocked == 0 {
		t.Errorf("degenerate run (admitted %d, blocked %d): tune the load", st.Admitted, st.Blocked)
	}
	es := m.eng.Stats()
	if es.Allocations-es.Releases != uint64(es.ActiveOwners) {
		t.Errorf("engine lease accounting diverged: %+v", es)
	}
}
