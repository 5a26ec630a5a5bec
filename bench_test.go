// Package-level benchmarks: one testing.B target per evaluation artifact
// of the reproduced paper. EXPERIMENTS.md maps each to its table/figure:
//
//	BenchmarkExampleRoute      E1  Figs. 1–4 worked example
//	BenchmarkCoreSparseN       E2  Theorem 1 scaling in n (sparse, fixed k)
//	BenchmarkCoreK             E2  Theorem 1 scaling in k (fixed n)
//	BenchmarkCompare           E3  Sec. III-C head-to-head vs CFZ
//	BenchmarkRestrictedK       E4  Theorem 4 k-independence (fixed k0)
//	BenchmarkDistributed       E5  Theorem 3 messages/rounds
//	BenchmarkAllPairs          E7  Corollary 1 all-pairs
//
// (E6, E8 and E9 are correctness-shaped artifacts; they live as tests:
// core.TestFig5Revisit / TestTheorem2LoopFree, core.TestObservationBounds
// and baseline.BenchmarkWGRepresentation / TestMatrixRepresentationParity.)
package lightpath_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/baseline"
	"lightpath/internal/core"
	"lightpath/internal/dist"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

// mustInstance builds a deterministic instance for benchmarks.
func mustInstance(b *testing.B, tp *topo.Topology, spec workload.Spec, seed int64) *wdm.Network {
	b.Helper()
	nw, err := workload.Build(tp, spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatalf("build instance: %v", err)
	}
	return nw
}

// BenchmarkExampleRoute (E1): route on the paper's Fig. 1 network.
func BenchmarkExampleRoute(b *testing.B) {
	nw, err := topo.PaperExample(topo.DefaultPaperExampleSpec())
	if err != nil {
		b.Fatal(err)
	}
	aux, err := core.NewAux(nw)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := aux.Route(0, 6, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreSparseN (E2): build+route cost as n doubles on sparse
// WANs with k fixed — near-linear growth is the Theorem 1 claim in the
// m=O(n) regime.
func BenchmarkCoreSparseN(b *testing.B) {
	for _, n := range []int{250, 500, 1000, 2000, 4000} {
		tp := topo.RandomSparse(n, 4, 5, rand.New(rand.NewSource(int64(n))))
		nw := mustInstance(b, tp, workload.RestrictedSpec(8), int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				aux, err := core.NewAux(nw)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := aux.Route(0, n/2, nil); err != nil && !errors.Is(err, core.ErrNoRoute) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoreK (E2): cost as k doubles with n fixed and Λ(e) dense —
// the k²n gadget regime.
func BenchmarkCoreK(b *testing.B) {
	const n = 500
	tp := topo.RandomSparse(n, 4, 5, rand.New(rand.NewSource(99)))
	for _, k := range []int{2, 4, 8, 16, 32} {
		nw := mustInstance(b, tp,
			workload.Spec{K: k, AvailProb: 0.8, Conv: workload.ConvUniform, ConvCost: 0.5}, int64(k))
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				aux, err := core.NewAux(nw)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := aux.Route(0, n/2, nil); err != nil && !errors.Is(err, core.ErrNoRoute) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompare (E3): ours vs CFZ on sparse networks with
// k = ⌈log2 n⌉ — the paper's headline O(n log² n) vs O(n² log n) regime.
func BenchmarkCompare(b *testing.B) {
	for _, n := range []int{100, 200, 400, 800} {
		k := int(math.Ceil(math.Log2(float64(n))))
		tp := topo.RandomSparse(n, 4, 5, rand.New(rand.NewSource(int64(n))))
		nw := mustInstance(b, tp,
			workload.Spec{K: k, AvailProb: 0.6, Conv: workload.ConvUniform, ConvCost: 0.5}, int64(n)+7)
		b.Run(fmt.Sprintf("ours/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.FindSemilightpath(nw, 0, n/2, nil); err != nil && !errors.Is(err, core.ErrNoRoute) {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("cfz/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.FindSemilightpath(nw, 0, n/2); err != nil && !errors.Is(err, baseline.ErrNoRoute) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestrictedK (E4): with |Λ(e)| ≤ k0 = 4 fixed, the core
// algorithm's cost must stay flat as the universe k grows 64×, while CFZ
// pays for all kn wavelength-graph nodes.
func BenchmarkRestrictedK(b *testing.B) {
	const n = 400
	tp := topo.RandomSparse(n, 4, 5, rand.New(rand.NewSource(44)))
	for _, k := range []int{8, 32, 128, 512} {
		nw := mustInstance(b, tp,
			workload.Spec{K: k, K0: 4, AvailProb: 0.8, Conv: workload.ConvUniform, ConvCost: 0.5}, int64(k)+3)
		b.Run(fmt.Sprintf("ours/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.FindSemilightpath(nw, 0, n/2, nil); err != nil && !errors.Is(err, core.ErrNoRoute) {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("cfz/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.FindSemilightpath(nw, 0, n/2); err != nil && !errors.Is(err, baseline.ErrNoRoute) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributed (E5): full distributed runs; msgs and rounds are
// reported as custom metrics next to wall time.
func BenchmarkDistributed(b *testing.B) {
	for _, p := range []struct{ n, k int }{{100, 4}, {200, 4}, {400, 4}, {200, 8}} {
		tp := topo.RandomSparse(p.n, 4, 5, rand.New(rand.NewSource(int64(p.n*10+p.k))))
		nw := mustInstance(b, tp, workload.RestrictedSpec(p.k), int64(p.k))
		b.Run(fmt.Sprintf("n=%d/k=%d", p.n, p.k), func(b *testing.B) {
			var msgs, rounds float64
			for i := 0; i < b.N; i++ {
				res, err := dist.Route(nw, 0, p.n/2)
				if errors.Is(err, dist.ErrNoRoute) {
					continue
				}
				if err != nil {
					b.Fatal(err)
				}
				msgs = float64(res.Stats.Messages)
				rounds = float64(res.Stats.Rounds)
			}
			b.ReportMetric(msgs, "msgs")
			b.ReportMetric(rounds, "rounds")
			b.ReportMetric(msgs/float64(p.k*nw.NumLinks()), "msgs/km")
		})
	}
}

// BenchmarkAllPairs (E7): Corollary 1's all-pairs algorithm.
func BenchmarkAllPairs(b *testing.B) {
	for _, n := range []int{25, 50, 100} {
		tp := topo.RandomSparse(n, 4, 5, rand.New(rand.NewSource(int64(n))))
		nw := mustInstance(b, tp, workload.RestrictedSpec(4), int64(n)+1)
		aux, err := core.NewAux(nw)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := aux.AllPairs(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
