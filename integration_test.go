package lightpath_test

// End-to-end integration suite: generate instances across every
// topology family and conversion regime, then drive every solver —
// centralized (all four queues), distributed (sync and async), the
// brute-force oracle, K-shortest, protection, and session admission —
// against the same instance, cross-checking all of them. This is the
// repository's system test: if any two layers disagree, it fails.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lightpath"
	"lightpath/internal/core"
	"lightpath/internal/dist"
	"lightpath/internal/graph"
	"lightpath/internal/oracle"
	"lightpath/internal/topo"
	"lightpath/internal/workload"
)

type scenario struct {
	name string
	tp   *topo.Topology
	spec workload.Spec
}

func scenarios(rng *rand.Rand) []scenario {
	return []scenario{
		{
			name: "ring/full-conversion",
			tp:   topo.Ring(10),
			spec: workload.Spec{K: 3, AvailProb: 0.7, Conv: workload.ConvUniform, ConvCost: 0.3},
		},
		{
			name: "grid/no-conversion",
			tp:   topo.Grid(4, 4),
			spec: workload.Spec{K: 4, AvailProb: 0.8, Conv: workload.ConvNone},
		},
		{
			name: "nsfnet/sparse-table",
			tp:   topo.NSFNET(),
			spec: workload.Spec{K: 5, AvailProb: 0.5, Conv: workload.ConvSparseTable, ConvCost: 0.4, ConvProb: 0.6},
		},
		{
			name: "arpanet/distance",
			tp:   topo.ARPANET(),
			spec: workload.Spec{K: 6, AvailProb: 0.5, Conv: workload.ConvDistance, ConvCost: 0.2, ConvRadius: 2},
		},
		{
			name: "torus/k0-bounded",
			tp:   topo.Torus(4, 4),
			spec: workload.Spec{K: 12, K0: 3, AvailProb: 0.8, Conv: workload.ConvUniform, ConvCost: 0.3},
		},
		{
			name: "hypercube/restricted",
			tp:   topo.Hypercube(4),
			spec: workload.RestrictedSpec(4),
		},
		{
			name: "waxman/random",
			tp:   topo.Waxman(24, 0.5, 0.2, rng),
			spec: workload.Spec{K: 4, AvailProb: 0.6, Conv: workload.ConvUniform, ConvCost: 0.25},
		},
	}
}

func TestIntegrationAllSolversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for _, sc := range scenarios(rng) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			nw, err := workload.Build(sc.tp, sc.spec, rng)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			router, err := lightpath.NewRouter(nw)
			if err != nil {
				t.Fatalf("router: %v", err)
			}
			if err := router.Stats().CheckObservationBounds(); err != nil {
				t.Fatalf("observation bounds: %v", err)
			}

			qrng := rand.New(rand.NewSource(7))
			for q := 0; q < 6; q++ {
				s, d := qrng.Intn(sc.tp.N), qrng.Intn(sc.tp.N)
				if s == d {
					continue
				}

				// Reference: the from-definition oracle.
				oCost, _, oErr := oracle.Solve(nw, s, d)

				// Centralized, all queues.
				for _, kind := range []graph.QueueKind{
					graph.QueueFibonacci, graph.QueueBinary,
					graph.QueueLinear, graph.QueueBucket,
				} {
					res, err := router.Route(s, d, &lightpath.Options{Queue: kind})
					if (oErr == nil) != (err == nil) {
						t.Fatalf("%d→%d %v: reachability disagrees with oracle (%v vs %v)",
							s, d, kind, err, oErr)
					}
					if err != nil {
						continue
					}
					if math.Abs(res.Cost-oCost) > 1e-9 {
						t.Fatalf("%d→%d %v: cost %v != oracle %v", s, d, kind, res.Cost, oCost)
					}
					if err := res.Path.Validate(nw, s, d); err != nil {
						t.Fatalf("%d→%d %v: invalid path: %v", s, d, kind, err)
					}
				}
				if oErr != nil {
					continue
				}

				// Distributed, sync and async.
				dres, err := lightpath.FindDistributed(nw, s, d)
				if err != nil {
					t.Fatalf("%d→%d distributed: %v", s, d, err)
				}
				if math.Abs(dres.Cost-oCost) > 1e-9 {
					t.Fatalf("%d→%d distributed cost %v != oracle %v", s, d, dres.Cost, oCost)
				}
				ares, _, err := lightpath.FindDistributedAsync(nw, s, d, &lightpath.AsyncOptions{Seed: int64(q)})
				if err != nil {
					t.Fatalf("%d→%d async: %v", s, d, err)
				}
				if math.Abs(ares.Cost-oCost) > 1e-9 {
					t.Fatalf("%d→%d async cost %v != oracle %v", s, d, ares.Cost, oCost)
				}

				// K-shortest: first path is the optimum, sequence sorted.
				paths, err := router.KShortest(s, d, 3)
				if err != nil {
					t.Fatalf("%d→%d kshortest: %v", s, d, err)
				}
				if math.Abs(paths[0].Cost-oCost) > 1e-9 {
					t.Fatalf("%d→%d kshortest[0] %v != oracle %v", s, d, paths[0].Cost, oCost)
				}
				for i := 1; i < len(paths); i++ {
					if paths[i].Cost < paths[i-1].Cost-1e-9 {
						t.Fatalf("%d→%d kshortest not sorted", s, d)
					}
				}
			}
		})
	}
}

func TestIntegrationSessionLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, sc := range scenarios(rng) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			nw, err := workload.Build(sc.tp, sc.spec, rng)
			if err != nil {
				t.Fatal(err)
			}
			m, err := lightpath.NewSessionManager(nw)
			if err != nil {
				t.Fatal(err)
			}
			res, err := lightpath.SimulateTraffic(m, lightpath.TrafficConfig{
				Requests: 400,
				Load:     10,
				Seed:     5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if m.ActiveCircuits() != 0 {
				t.Fatal("simulation must drain")
			}
			st := res.Stats
			if st.Admitted+st.Blocked != 400 {
				t.Fatalf("offered = %d, want 400", st.Admitted+st.Blocked)
			}
			if st.Released != st.Admitted {
				t.Fatalf("released %d != admitted %d", st.Released, st.Admitted)
			}
			if res.MeanUtilization < 0 || res.MeanUtilization > 1 {
				t.Fatalf("utilization %v out of range", res.MeanUtilization)
			}
		})
	}
}

func TestIntegrationProtectionOnBiconnectedTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Ring, torus and hypercube are 2-edge-connected: protection must
	// succeed for every pair (with full conversion and full availability).
	for _, tp := range []*topo.Topology{topo.Ring(8), topo.Torus(3, 3), topo.Hypercube(3)} {
		nw, err := workload.Build(tp, workload.Spec{
			K: 3, AvailProb: 1.0, Conv: workload.ConvUniform, ConvCost: 0.1,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		router, err := lightpath.NewRouter(nw)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < tp.N; s++ {
			for d := 0; d < tp.N; d++ {
				if s == d {
					continue
				}
				pair, err := router.RouteProtected(s, d, &core.ProtectOptions{PrimaryCandidates: 4})
				if err != nil {
					t.Fatalf("%s %d→%d: %v", tp.Name, s, d, err)
				}
				if !core.LinkDisjoint(pair.Primary.Path, pair.Backup.Path) {
					t.Fatalf("%s %d→%d: not disjoint", tp.Name, s, d)
				}
			}
		}
	}
}

func TestIntegrationSerializationPreservesRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sc := range scenarios(rng) {
		nw, err := workload.Build(sc.tp, sc.spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		data, err := lightpath.MarshalNetwork(nw)
		if err != nil {
			t.Fatalf("%s: marshal: %v", sc.name, err)
		}
		back, err := lightpath.UnmarshalNetwork(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", sc.name, err)
		}
		for q := 0; q < 4; q++ {
			s, d := rng.Intn(sc.tp.N), rng.Intn(sc.tp.N)
			r1, e1 := lightpath.Find(nw, s, d, nil)
			r2, e2 := lightpath.Find(back, s, d, nil)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("%s %d→%d: reachability changed after round trip", sc.name, s, d)
			}
			if e1 == nil && math.Abs(r1.Cost-r2.Cost) > 1e-9 {
				t.Fatalf("%s %d→%d: cost changed after round trip: %v vs %v",
					sc.name, s, d, r1.Cost, r2.Cost)
			}
		}
	}
}

func TestIntegrationDistributedVariantsShareCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	nw, err := workload.Build(topo.Grid(4, 4), workload.RestrictedSpec(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential, pipelined and centralized all-pairs must agree.
	seq, _, err := dist.AllPairs(nw)
	if err != nil {
		t.Fatal(err)
	}
	pip, _, err := dist.AllPairsPipelined(nw)
	if err != nil {
		t.Fatal(err)
	}
	router, err := lightpath.NewRouter(nw)
	if err != nil {
		t.Fatal(err)
	}
	central, err := router.AllPairsParallel(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := range seq {
		for d := range seq[s] {
			for name, got := range map[string]float64{"pipelined": pip[s][d], "central": central.Costs[s][d]} {
				a, b := seq[s][d], got
				if math.IsInf(a, 1) != math.IsInf(b, 1) || (!math.IsInf(a, 1) && math.Abs(a-b) > 1e-9) {
					t.Fatalf("(%d,%d) %s: %v != %v", s, d, name, b, a)
				}
			}
		}
	}
}

func TestIntegrationBlockedIsErrBlocked(t *testing.T) {
	// The public error taxonomy must survive the whole stack.
	nw := lightpath.NewNetwork(2, 1)
	if _, err := nw.AddLink(0, 1, []lightpath.Channel{{Lambda: 0, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	m, err := lightpath.NewSessionManager(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Admit(0, 1); err != nil {
		t.Fatal(err)
	}
	_, err = m.Admit(0, 1)
	if !errors.Is(err, lightpath.ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
}
