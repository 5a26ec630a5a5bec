package lightpath_test

import (
	"fmt"
	"math"
	"math/rand"

	"lightpath"
)

// buildExampleNet assembles the small network the runnable examples
// share: 0→1 on λ0, 1→2 on λ1, full conversion at cost 0.5.
func buildExampleNet() *lightpath.Network {
	nw := lightpath.NewNetwork(3, 2)
	if _, err := nw.AddLink(0, 1, []lightpath.Channel{{Lambda: 0, Weight: 1}}); err != nil {
		panic(err)
	}
	if _, err := nw.AddLink(1, 2, []lightpath.Channel{{Lambda: 1, Weight: 2}}); err != nil {
		panic(err)
	}
	nw.SetConverter(lightpath.UniformConversion{C: 0.5})
	return nw
}

// The one-shot query API: build a network, find the optimal
// semilightpath, inspect its wavelength plan.
func ExampleFind() {
	nw := buildExampleNet()
	res, err := lightpath.Find(nw, 0, 2, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cost %.1f over %d hops\n", res.Cost, res.Path.Len())
	fmt.Println(res.Path.String(nw))
	for _, c := range res.Conversions(nw) {
		fmt.Printf("retune λ%d→λ%d at node %d\n", c.From+1, c.To+1, c.Node)
	}
	// Output:
	// cost 3.5 over 2 hops
	// 0 -[λ1]-> 1 -[λ2]-> 2
	// retune λ1→λ2 at node 1
}

// A compiled Router answers many queries over one network; it is
// immutable and safe for concurrent use.
func ExampleRouter() {
	nw := buildExampleNet()
	router, err := lightpath.NewRouter(nw)
	if err != nil {
		panic(err)
	}
	tree, err := router.RouteFrom(0, nil)
	if err != nil {
		panic(err)
	}
	for t := 0; t < 3; t++ {
		fmt.Printf("0→%d: %.1f\n", t, tree.Dist(t))
	}
	// Output:
	// 0→0: 0.0
	// 0→1: 1.0
	// 0→2: 3.5
}

// The distributed algorithm gives the same answer with message-passing
// semantics and reports the Theorem 3 counters.
func ExampleFindDistributed() {
	nw := buildExampleNet()
	res, err := lightpath.FindDistributed(nw, 0, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cost %.1f\n", res.Cost)
	fmt.Printf("messages within km bound: %v\n",
		res.Stats.Messages <= nw.K()*nw.NumLinks())
	// Output:
	// cost 3.5
	// messages within km bound: true
}

// Online circuit switching: admissions claim wavelengths, blocking
// happens when capacity runs out.
func ExampleSessionManager() {
	nw := buildExampleNet()
	m, err := lightpath.NewSessionManager(nw)
	if err != nil {
		panic(err)
	}
	first, err := m.Admit(0, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("admitted circuit %d at cost %.1f\n", first.ID, first.Cost)
	if _, err := m.Admit(0, 2); err != nil {
		fmt.Println("second request blocked")
	}
	if err := m.Release(first.ID); err != nil {
		panic(err)
	}
	if _, err := m.Admit(0, 2); err == nil {
		fmt.Println("admitted again after release")
	}
	// Output:
	// admitted circuit 1 at cost 3.5
	// second request blocked
	// admitted again after release
}

// addFibers installs each fiber in both directions. Each direction
// carries every wavelength with probability avail, at weight
// 1 + spread·U[0,1), or one random wavelength at weight pad if none
// was drawn.
func addFibers(nw *lightpath.Network, fibers [][2]int, rng *rand.Rand, avail, spread, pad float64) {
	for _, f := range fibers {
		for _, dir := range [][2]int{f, {f[1], f[0]}} {
			var chans []lightpath.Channel
			for l := 0; l < nw.K(); l++ {
				if rng.Float64() < avail {
					chans = append(chans, lightpath.Channel{Lambda: lightpath.Wavelength(l), Weight: 1 + spread*rng.Float64()})
				}
			}
			if len(chans) == 0 {
				chans = append(chans, lightpath.Channel{Lambda: lightpath.Wavelength(rng.Intn(nw.K())), Weight: pad})
			}
			if _, err := nw.AddLink(dir[0], dir[1], chans); err != nil {
				panic(err)
			}
		}
	}
}

// Converter banks at five of NSFNET's fourteen offices, everywhere else
// none: a demand that cannot keep one wavelength end to end retunes at a
// hub (a semilightpath), and the all-pairs table counts the demands the
// banks unblock.
func ExamplePerNodeConversion() {
	cities := []string{"Seattle", "PaloAlto", "SanDiego", "SaltLake", "Boulder", "Houston", "Lincoln",
		"Champaign", "Pittsburgh", "Atlanta", "AnnArbor", "Ithaca", "CollegePk", "Princeton"}
	nw := lightpath.NewNetwork(len(cities), 5)
	addFibers(nw, [][2]int{
		{0, 1}, {0, 2}, {0, 7}, {1, 2}, {1, 3}, {2, 5}, {3, 4}, {3, 10}, {4, 5}, {4, 6}, {5, 9},
		{5, 12}, {6, 7}, {6, 13}, {7, 8}, {8, 9}, {8, 11}, {8, 13}, {10, 11}, {10, 13}, {11, 12},
	}, rand.New(rand.NewSource(14)), 0.3, 1, 1.5)
	bank := lightpath.UniformConversion{C: 0.25}
	nw.SetConverter(lightpath.PerNodeConversion{Nodes: map[int]lightpath.Converter{
		3: bank, 5: bank, 7: bank, 8: bank,
		10: lightpath.DistanceConversion{Radius: 2, PerStep: 0.2}, // limited range
	}, Default: lightpath.NoConversion{}})
	router, err := lightpath.NewRouter(nw)
	if err != nil {
		panic(err)
	}
	fmt.Printf("auxiliary graph: %s\n", router.Stats())
	for _, d := range [][2]int{{0, 13}, {2, 11}, {5, 0}, {9, 1}, {12, 2}} {
		res, err := router.Route(d[0], d[1], nil)
		if err != nil {
			panic(err)
		}
		kind := "lightpath    "
		if !res.Path.IsLightpath() {
			kind = "semilightpath"
		}
		fmt.Printf("%-10s → %-10s %s cost %.2f, %d hops", cities[d[0]], cities[d[1]], kind, res.Cost, res.Path.Len())
		for _, c := range res.Conversions(nw) {
			fmt.Printf(", retune λ%d→λ%d at %s", c.From+1, c.To+1, cities[c.Node])
		}
		fmt.Println()
	}
	withBanks := blockedPairs(router)
	nw.SetConverter(lightpath.NoConversion{})
	bare, err := lightpath.NewRouter(nw)
	if err != nil {
		panic(err)
	}
	fmt.Printf("blocked demands across all %d ordered pairs: %d with hubs, %d without conversion\n",
		nw.NumNodes()*(nw.NumNodes()-1), withBanks, blockedPairs(bare))
	// Output:
	// auxiliary graph: n=14 m=42 k=5 k0=5 d=4 |V'|=105 |E'|=187 (gadget=105, org=82)
	// Seattle    → Princeton  semilightpath cost 4.19, 3 hops, retune λ5→λ2 at Champaign
	// SanDiego   → Ithaca     lightpath     cost 4.94, 3 hops
	// Houston    → Seattle    semilightpath cost 9.97, 7 hops, retune λ2→λ5 at SaltLake, retune λ5→λ4 at AnnArbor, retune λ4→λ3 at Pittsburgh
	// Atlanta    → PaloAlto   semilightpath cost 5.63, 4 hops, retune λ3→λ2 at Houston
	// CollegePk  → SanDiego   semilightpath cost 3.31, 2 hops, retune λ5→λ3 at Houston
	// blocked demands across all 182 ordered pairs: 9 with hubs, 66 without conversion
}

// blockedPairs counts the ordered pairs s ≠ t with no semilightpath.
func blockedPairs(router *lightpath.Router) int {
	all, err := router.AllPairs(nil)
	if err != nil {
		panic(err)
	}
	blocked := 0
	for s, row := range all.Costs {
		for t, c := range row {
			if s != t && math.IsInf(c, 1) {
				blocked++
			}
		}
	}
	return blocked
}

// backbone is a 20-node ARPANET-like WAN of degree at most 4 with six
// wavelengths, each available on a link with probability one half, and
// full conversion at cost 0.5.
func backbone() *lightpath.Network {
	nw := lightpath.NewNetwork(20, 6)
	addFibers(nw, [][2]int{
		{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 4}, {2, 5}, {3, 6}, {3, 7}, {4, 7}, {4, 8}, {5, 8},
		{5, 9}, {6, 10}, {7, 10}, {7, 11}, {8, 11}, {8, 12}, {9, 12}, {9, 13}, {10, 14}, {11, 14},
		{11, 15}, {12, 15}, {12, 16}, {13, 16}, {14, 17}, {15, 17}, {15, 18}, {16, 18}, {16, 19},
		{17, 18}, {18, 19},
	}, rand.New(rand.NewSource(20)), 0.5, 2, 2)
	nw.SetConverter(lightpath.UniformConversion{C: 0.5})
	return nw
}

// Corollary 1's routing table: every pair's optimal cost from n
// one-to-all passes, read the way a control plane reads its table.
func ExampleRouter_AllPairs() {
	nw := backbone()
	router, err := lightpath.NewRouter(nw)
	if err != nil {
		panic(err)
	}
	all, err := router.AllPairs(nil)
	if err != nil {
		panic(err)
	}
	connected, maxC, far := 0, 0.0, [2]int{}
	for s, row := range all.Costs {
		for t, c := range row {
			if s != t && !math.IsInf(c, 1) {
				connected++
				if c > maxC {
					maxC, far = c, [2]int{s, t}
				}
			}
		}
	}
	fmt.Printf("routing table over %d nodes, %d wavelengths: %d/%d pairs connected\n",
		nw.NumNodes(), nw.K(), connected, nw.NumNodes()*(nw.NumNodes()-1))
	fmt.Printf("most expensive circuit: %d → %d at %.2f (the cost diameter)\n", far[0], far[1], maxC)
	res, err := router.Route(far[0], far[1], nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("its path: %s\n", res.Path.String(nw))
	fmt.Printf("  0 → %2d  %.2f\n", 19, all.Costs[0][19])
	// Output:
	// routing table over 20 nodes, 6 wavelengths: 380/380 pairs connected
	// most expensive circuit: 19 → 0 at 10.40 (the cost diameter)
	// its path: 19 -[λ5]-> 16 -[λ4]-> 13 -[λ4]-> 9 -[λ3]-> 5 -[λ3]-> 2 -[λ3]-> 0
	//   0 → 19  8.27
}

// 1+1 protection: an optimal primary semilightpath and a link-disjoint
// backup for each demand.
func ExampleRouter_RouteProtected() {
	nw := backbone()
	router, err := lightpath.NewRouter(nw)
	if err != nil {
		panic(err)
	}
	for _, d := range [][2]int{{0, 19}, {3, 16}} {
		pair, err := router.RouteProtected(d[0], d[1], nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%d → %d: total %.2f\n", d[0], d[1], pair.TotalCost())
		fmt.Printf("  primary (%.2f): %s\n", pair.Primary.Cost, pair.Primary.Path.String(nw))
		fmt.Printf("  backup  (%.2f): %s\n", pair.Backup.Cost, pair.Backup.Path.String(nw))
	}
	// Output:
	// 0 → 19: total 20.47
	//   primary (8.27): 0 -[λ4]-> 2 -[λ4]-> 4 -[λ6]-> 8 -[λ6]-> 12 -[λ5]-> 16 -[λ5]-> 19
	//   backup  (12.20): 0 -[λ1]-> 1 -[λ1]-> 3 -[λ1]-> 7 -[λ1]-> 11 -[λ1]-> 15 -[λ1]-> 18 -[λ1]-> 19
	// 3 → 16: total 17.16
	//   primary (7.76): 3 -[λ2]-> 1 -[λ6]-> 4 -[λ6]-> 8 -[λ6]-> 12 -[λ6]-> 16
	//   backup  (9.40): 3 -[λ1]-> 7 -[λ1]-> 11 -[λ1]-> 15 -[λ2]-> 18 -[λ2]-> 16
}

// Alternate routing: the K best semilightpaths for one demand, by Yen's
// algorithm over the auxiliary graph.
func ExampleRouter_KShortest() {
	nw := backbone()
	router, err := lightpath.NewRouter(nw)
	if err != nil {
		panic(err)
	}
	paths, err := router.KShortest(0, 19, 3)
	if err != nil {
		panic(err)
	}
	for i, p := range paths {
		fmt.Printf("#%d cost %.2f, %d hops, %d conversions\n", i+1, p.Cost, p.Path.Len(), len(p.Path.Conversions(nw)))
	}
	// Output:
	// #1 cost 8.27, 6 hops, 2 conversions
	// #2 cost 8.29, 6 hops, 2 conversions
	// #3 cost 8.67, 6 hops, 2 conversions
}
