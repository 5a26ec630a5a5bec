package lightpath_test

import (
	"errors"
	"math"
	"testing"

	"lightpath"
)

// buildQuickstartNet is the network of the package doc comment.
func buildQuickstartNet(t *testing.T) *lightpath.Network {
	t.Helper()
	nw := lightpath.NewNetwork(4, 2)
	if _, err := nw.AddLink(0, 1, []lightpath.Channel{{Lambda: 0, Weight: 1.0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddLink(1, 2, []lightpath.Channel{{Lambda: 1, Weight: 2.0}}); err != nil {
		t.Fatal(err)
	}
	nw.SetConverter(lightpath.UniformConversion{C: 0.5})
	return nw
}

func TestQuickstartFlow(t *testing.T) {
	nw := buildQuickstartNet(t)
	res, err := lightpath.Find(nw, 0, 2, nil)
	if err != nil {
		t.Fatalf("Find: %v", err)
	}
	if math.Abs(res.Cost-3.5) > 1e-9 {
		t.Fatalf("cost = %v, want 3.5 (1 + 0.5 conversion + 2)", res.Cost)
	}
	if res.Path.Len() != 2 {
		t.Fatalf("hops = %d, want 2", res.Path.Len())
	}
	convs := res.Conversions(nw)
	if len(convs) != 1 || convs[0].Node != 1 {
		t.Fatalf("conversions = %+v", convs)
	}
	if res.Path.IsLightpath() {
		t.Fatal("path converts, so it is not a lightpath")
	}
}

func TestRouterReuse(t *testing.T) {
	nw := buildQuickstartNet(t)
	router, err := lightpath.NewRouter(nw)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	res, err := router.Route(0, 2, &lightpath.Options{Queue: lightpath.QueueBinary})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-3.5) > 1e-9 {
		t.Fatalf("cost = %v", res.Cost)
	}
	tree, err := router.RouteFrom(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tree.Dist(2)-3.5) > 1e-9 {
		t.Fatalf("tree dist = %v", tree.Dist(2))
	}
	p, err := tree.PathTo(2)
	if err != nil || p.Len() != 2 {
		t.Fatalf("PathTo: %v %v", p, err)
	}
	all, err := router.AllPairs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(all.Costs[0][2]-3.5) > 1e-9 {
		t.Fatalf("all-pairs cost = %v", all.Costs[0][2])
	}
	if !math.IsInf(all.Costs[2][0], 1) {
		t.Fatal("2→0 should be unreachable")
	}
}

func TestFindDistributed(t *testing.T) {
	nw := buildQuickstartNet(t)
	res, err := lightpath.FindDistributed(nw, 0, 2)
	if err != nil {
		t.Fatalf("FindDistributed: %v", err)
	}
	if math.Abs(res.Cost-3.5) > 1e-9 {
		t.Fatalf("cost = %v, want 3.5", res.Cost)
	}
	if res.Stats.Messages <= 0 {
		t.Fatal("distributed stats missing")
	}
}

func TestErrNoRoute(t *testing.T) {
	nw := buildQuickstartNet(t)
	if _, err := lightpath.Find(nw, 2, 0, nil); !errors.Is(err, lightpath.ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestRestrictionsAPI(t *testing.T) {
	nw := buildQuickstartNet(t)
	if err := lightpath.CheckRestriction1(nw); err != nil {
		t.Fatalf("restriction 1: %v", err)
	}
	if err := lightpath.CheckRestriction2(nw); err != nil {
		t.Fatalf("restriction 2: %v", err)
	}
	if !lightpath.SatisfiesRestrictions(nw) {
		t.Fatal("restrictions should hold")
	}
	nw.SetConverter(lightpath.NoConversion{})
	if lightpath.SatisfiesRestrictions(nw) {
		t.Fatal("NoConversion violates restriction 1 here")
	}
}

func TestSerializationAPI(t *testing.T) {
	nw := buildQuickstartNet(t)
	data, err := lightpath.MarshalNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	back, err := lightpath.UnmarshalNetwork(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lightpath.Find(back, 0, 2, nil)
	if err != nil || math.Abs(res.Cost-3.5) > 1e-9 {
		t.Fatalf("round-tripped network routes differently: %v %v", res, err)
	}
}

func TestConverterReexports(t *testing.T) {
	tab := lightpath.NewTableConversion()
	tab.Set(0, 0, 1, 2)
	if got := tab.Cost(0, 0, 1); got != 2 {
		t.Fatalf("table cost = %v", got)
	}
	var c lightpath.Converter = lightpath.DistanceConversion{Radius: 1, PerStep: 1}
	if got := c.Cost(0, 0, 1); got != 1 {
		t.Fatalf("distance cost = %v", got)
	}
	c = lightpath.PerNodeConversion{Default: lightpath.UniformConversion{C: 3}}
	if got := c.Cost(9, 0, 1); got != 3 {
		t.Fatalf("per-node cost = %v", got)
	}
	c = lightpath.ConverterFunc(func(int, lightpath.Wavelength, lightpath.Wavelength) float64 { return 7 })
	if got := c.Cost(0, 0, 1); got != 7 {
		t.Fatalf("func cost = %v", got)
	}
}

func TestBuildStatsExposed(t *testing.T) {
	nw := buildQuickstartNet(t)
	router, err := lightpath.NewRouter(nw)
	if err != nil {
		t.Fatal(err)
	}
	var st lightpath.BuildStats = router.Stats()
	if st.Nodes != 4 || st.K != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if err := st.CheckObservationBounds(); err != nil {
		t.Fatal(err)
	}
}

func TestKShortestViaRouter(t *testing.T) {
	nw := buildQuickstartNet(t)
	router, err := lightpath.NewRouter(nw)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := router.KShortest(0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 || math.Abs(paths[0].Cost-3.5) > 1e-9 {
		t.Fatalf("k-shortest: %+v", paths)
	}
}

func TestFindDistributedAsync(t *testing.T) {
	nw := buildQuickstartNet(t)
	res, stats, err := lightpath.FindDistributedAsync(nw, 0, 2, &lightpath.AsyncOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-3.5) > 1e-9 || stats.Messages <= 0 {
		t.Fatalf("async: cost %v stats %+v", res.Cost, stats)
	}
}

func TestAllPairsDistributedFacade(t *testing.T) {
	nw := buildQuickstartNet(t)
	costs, stats, err := lightpath.AllPairsDistributed(nw)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(costs[0][2]-3.5) > 1e-9 || stats.Messages <= 0 {
		t.Fatalf("all-pairs distributed: %v %+v", costs[0][2], stats)
	}
}

func TestAdmissionPolicies(t *testing.T) {
	nw := buildQuickstartNet(t)
	m, err := lightpath.NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.AdmitPolicy(0, 2, lightpath.PolicyOptimal)
	if err != nil {
		t.Fatalf("optimal admit: %v", err)
	}
	if err := m.Release(c.ID); err != nil {
		t.Fatal(err)
	}
	// First-fit blocks here: the only route 0→1→2 needs λ0 then λ1.
	if _, err := m.AdmitPolicy(0, 2, lightpath.PolicyFirstFit); !errors.Is(err, lightpath.ErrBlocked) {
		t.Fatalf("first-fit should block on wavelength discontinuity: %v", err)
	}
}

func TestAdmitProtectedFacade(t *testing.T) {
	// A 4-node ring with ample capacity: protected admission succeeds and
	// cascade-release frees everything.
	nw := lightpath.NewNetwork(4, 2)
	for i := 0; i < 4; i++ {
		for _, pair := range [][2]int{{i, (i + 1) % 4}, {(i + 1) % 4, i}} {
			if _, err := nw.AddLink(pair[0], pair[1], []lightpath.Channel{
				{Lambda: 0, Weight: 1}, {Lambda: 1, Weight: 1},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	nw.SetConverter(lightpath.UniformConversion{C: 0.1})
	m, err := lightpath.NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	primary, backup, err := m.AdmitProtected(0, 2)
	if err != nil {
		t.Fatalf("AdmitProtected: %v", err)
	}
	if backup == nil || primary == nil {
		t.Fatal("missing circuits")
	}
	if err := m.Release(primary.ID); err != nil {
		t.Fatal(err)
	}
	if m.ActiveCircuits() != 0 {
		t.Fatal("cascade release failed")
	}
}

func TestRouteBoundedFacade(t *testing.T) {
	nw := buildQuickstartNet(t)
	router, err := lightpath.NewRouter(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := router.RouteBounded(0, 2, 2, nil)
	if err != nil || math.Abs(res.Cost-3.5) > 1e-9 {
		t.Fatalf("bounded: %v %v", res, err)
	}
	if _, err := router.RouteBounded(0, 2, 1, nil); !errors.Is(err, lightpath.ErrNoRoute) {
		t.Fatalf("1-hop should be infeasible: %v", err)
	}
}
