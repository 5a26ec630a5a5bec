package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"lightpath/internal/core"
	"lightpath/internal/dist"
	"lightpath/internal/place"
	"lightpath/internal/session"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

// This file holds the extension experiments beyond the paper's own
// artifacts: the online circuit-switching application (blocking vs
// offered load), the synchronous-vs-asynchronous distributed ablation,
// and K-shortest alternate-path enumeration.

// RunSession sweeps offered load on a reference WAN and reports blocking
// probability — the application experiment the paper's introduction
// motivates (dynamic circuit switching over residual capacity).
func RunSession(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	tp := topo.NSFNET()
	nw, err := workload.Build(tp, workload.Spec{
		K:         8,
		AvailProb: 0.6,
		Conv:      workload.ConvUniform,
		ConvCost:  0.3,
	}, rng)
	if err != nil {
		return err
	}
	t := &Table{
		Title:   "Application — online circuit switching on NSFNET (k=8)",
		Note:    "Poisson arrivals, exponential holding; blocking must grow monotonically with load",
		Headers: []string{"load (E)", "requests", "admitted", "blocked", "P(block)", "mean active", "mean util"},
	}
	requests := cfg.scaled(3000)
	for _, load := range []float64{1, 4, 16, 64, 256} {
		m, err := session.NewManager(nw)
		if err != nil {
			return err
		}
		res, err := session.SimulateTraffic(m, session.TrafficConfig{
			Requests: requests,
			Load:     load,
			Seed:     cfg.Seed,
		})
		if err != nil {
			return err
		}
		t.AddRow(load, requests, res.Stats.Admitted, res.Stats.Blocked,
			fmt.Sprintf("%.4f", res.Stats.BlockingProbability()),
			fmt.Sprintf("%.2f", res.MeanActive),
			fmt.Sprintf("%.4f", res.MeanUtilization))
	}
	t.render(w)
	return nil
}

// RunRWACompare pits the paper's conversion-aware optimal admission
// against the classical fixed-routing + first-fit heuristic at matched
// load: the blocking gap is the operational value of optimal
// semilightpath routing.
func RunRWACompare(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 12))
	tp := topo.NSFNET()
	nw, err := workload.Build(tp, workload.Spec{
		K:         6,
		AvailProb: 0.5,
		Conv:      workload.ConvUniform,
		ConvCost:  0.25,
	}, rng)
	if err != nil {
		return err
	}
	policies := []session.Policy{
		session.PolicyOptimal, session.PolicyFirstFit,
		session.PolicyMostUsed, session.PolicyLeastUsed, session.PolicyRandomFit,
	}
	t := &Table{
		Title:   "Application — admission policy shoot-out: P(block) by offered load (NSFNET, k=6)",
		Note:    "same traffic trace per row; optimal = conversion-aware semilightpaths, the rest are fixed-route WA heuristics",
		Headers: []string{"load (E)", "optimal", "first-fit", "most-used", "least-used", "random-fit"},
	}
	requests := cfg.scaled(2500)
	for _, load := range []float64{4, 8, 16, 32, 64} {
		row := []interface{}{load}
		for _, policy := range policies {
			m, err := session.NewManager(nw)
			if err != nil {
				return err
			}
			res, err := session.SimulateTraffic(m, session.TrafficConfig{
				Requests: requests,
				Load:     load,
				Seed:     cfg.Seed,
				Policy:   policy,
			})
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.4f", res.Stats.BlockingProbability()))
		}
		t.AddRow(row...)
	}
	t.render(w)
	return nil
}

// RunAsync compares the synchronous and asynchronous distributed
// executions: same optimum, different message totals — the price of
// per-delivery announcements without round coalescing.
func RunAsync(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 10))
	t := &Table{
		Title:   "Ablation — synchronous rounds vs asynchronous delivery (Theorem 3 model)",
		Note:    "costs always match; async pays extra messages for losing round coalescing",
		Headers: []string{"n", "k", "sync msgs", "sync rounds", "async msgs", "overhead", "virtual time"},
	}
	for _, rawN := range []int{50, 100, 200} {
		n := cfg.scaled(rawN)
		tp := topo.RandomSparse(n, 4, 5, rng)
		nw, err := workload.Build(tp, workload.RestrictedSpec(4), rng)
		if err != nil {
			return err
		}
		s, d := 0, n/2
		sres, err := dist.Route(nw, s, d)
		if errors.Is(err, dist.ErrNoRoute) {
			continue
		}
		if err != nil {
			return err
		}
		ares, astats, err := dist.RouteAsync(nw, s, d, &dist.AsyncOptions{Seed: cfg.Seed})
		if err != nil {
			return err
		}
		if diff := sres.Cost - ares.Cost; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("bench: async cost %v != sync %v", ares.Cost, sres.Cost)
		}
		t.AddRow(n, 4, sres.Stats.Messages, sres.Stats.Rounds, astats.Messages,
			fmt.Sprintf("%.2fx", float64(astats.Messages)/float64(sres.Stats.Messages)),
			fmt.Sprintf("%.1f", astats.VirtualTime))
	}
	t.render(w)
	return nil
}

// RunKShortest demonstrates alternate-path enumeration: the cost spread
// of the 5 best semilightpaths across reference topologies.
func RunKShortest(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	t := &Table{
		Title:   "Extension — K-shortest semilightpaths (Yen over G_{s,t})",
		Headers: []string{"topology", "query", "#1", "#2", "#3", "#4", "#5"},
	}
	for _, tc := range []struct {
		name string
		tp   *topo.Topology
		s, d int
	}{
		{"nsfnet", topo.NSFNET(), 0, 13},
		{"arpanet", topo.ARPANET(), 0, 19},
		{"grid-6x6", topo.Grid(6, 6), 0, 35},
	} {
		nw, err := workload.Build(tc.tp, workload.RestrictedSpec(6), rng)
		if err != nil {
			return err
		}
		aux, err := core.NewAux(nw)
		if err != nil {
			return err
		}
		paths, err := aux.KShortest(tc.s, tc.d, 5)
		if errors.Is(err, core.ErrNoRoute) {
			continue
		}
		if err != nil {
			return err
		}
		row := []interface{}{tc.name, fmt.Sprintf("%d→%d", tc.s, tc.d)}
		for i := 0; i < 5; i++ {
			if i < len(paths) {
				row = append(row, fmt.Sprintf("%.2f", paths[i].Cost))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	t.render(w)
	return nil
}

// RunPlacement demonstrates the converter-placement planner: greedy
// selection of converter sites on NSFNET scored by the all-pairs
// algorithm.
func RunPlacement(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	nw, err := workload.Build(topo.NSFNET(), workload.Spec{
		K:         4,
		AvailProb: 0.3,
		Conv:      workload.ConvNone,
	}, rng)
	if err != nil {
		return err
	}
	sites, history, err := place.Greedy(nw, 3, wdm.UniformConversion{C: 0.25})
	if err != nil {
		return err
	}
	n := nw.NumNodes()
	t := &Table{
		Title:   "Extension — greedy converter placement on NSFNET (k=4, sparse availability)",
		Note:    "each round adds the office whose converter bank connects the most pairs",
		Headers: []string{"banks", "added at", "connected pairs", "of", "total cost", "mean cost"},
	}
	t.AddRow(0, "-", history[0].ConnectedPairs, n*(n-1),
		fmt.Sprintf("%.1f", history[0].TotalCost),
		fmt.Sprintf("%.2f", history[0].MeanCost()))
	for i, site := range sites {
		m := history[i+1]
		t.AddRow(i+1, site, m.ConnectedPairs, n*(n-1),
			fmt.Sprintf("%.1f", m.TotalCost), fmt.Sprintf("%.2f", m.MeanCost()))
	}
	t.render(w)
	return nil
}

// RunWavelengthRequirement answers the provisioning question "how many
// wavelengths does this backbone need?": all-pairs unit demands are
// admitted sequentially with the optimal policy, and the carried
// fraction is reported per k. The smallest k carrying everything is the
// network's (heuristic) wavelength requirement.
func RunWavelengthRequirement(w io.Writer, cfg Config) error {
	tp := topo.NSFNET()
	t := &Table{
		Title:   "Extension — static provisioning: wavelength requirement of NSFNET",
		Note:    "all n(n−1) unit demands admitted sequentially (optimal policy, full conversion)",
		Headers: []string{"k", "demands", "carried", "fraction", "peak util"},
	}
	for _, k := range []int{4, 8, 16, 24, 32} {
		rng := rand.New(rand.NewSource(cfg.Seed + 14))
		nw, err := workload.Build(tp, workload.Spec{
			K:         k,
			AvailProb: 1.0, // fully installed fibers; scarcity comes from demands
			Conv:      workload.ConvUniform,
			ConvCost:  0.2,
		}, rng)
		if err != nil {
			return err
		}
		m, err := session.NewManager(nw)
		if err != nil {
			return err
		}
		n := nw.NumNodes()
		demands, carried := 0, 0
		peak := 0.0
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				demands++
				//lint:ignore leasepair the offered-load sweep measures blocking, not circuit lifecycle; circuits persist until the manager is discarded
				if _, err := m.Admit(s, d); err == nil {
					carried++
				}
				if u := m.Utilization(); u > peak {
					peak = u
				}
			}
		}
		t.AddRow(k, demands, carried,
			fmt.Sprintf("%.3f", float64(carried)/float64(demands)),
			fmt.Sprintf("%.3f", peak))
	}
	t.render(w)
	return nil
}
