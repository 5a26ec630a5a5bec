package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lightpath/internal/graph"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

func benchNetwork(b *testing.B, n, k int) *wdm.Network {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n*100 + k)))
	tp := topo.RandomSparse(n, 4, 5, rng)
	nw, err := workload.Build(tp, workload.RestrictedSpec(k), rng)
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

func BenchmarkNewAux(b *testing.B) {
	for _, n := range []int{100, 1000} {
		nw := benchNetwork(b, n, 8)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewAux(nw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRouteReusedAux(b *testing.B) {
	nw := benchNetwork(b, 1000, 8)
	aux, err := NewAux(nw)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := aux.Route(0, 500, nil); err != nil && !errors.Is(err, ErrNoRoute) {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoutePoint is the point query under each search mode (binary
// queue) over seeded pairs on a 300-node sparse network: astar is the
// server's default and the kernel the whole-stack benchmark's big_read
// workload spends its time in; plain is the paper's search it must match.
// settled/op counts auxiliary-graph pops, physpops/op the backward bound
// pass over the physical network. The astar/row= rows, at mid_* size
// (n=100) and big_read's (n=300), are the same query with no bound row to
// read (the pass runs up to s — what a destination's first ask at an
// epoch costs) and with every destination's row resident (no pass):
// settled/op must be equal across the two, physpops/op 0 on resident.
func BenchmarkRoutePoint(b *testing.B) {
	run := func(b *testing.B, aux *Aux, pairs [][2]int, opts *Options) {
		settled, physPops := 0, 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			res, err := aux.Route(p[0], p[1], opts)
			if err != nil && !errors.Is(err, ErrNoRoute) {
				b.Fatal(err)
			}
			if res != nil {
				settled += res.Stats.Settled
				physPops += res.Stats.PhysPops
			}
		}
		b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
		b.ReportMetric(float64(physPops)/float64(b.N), "physpops/op")
	}
	for _, n := range []int{300, 100} {
		aux, err := NewAux(benchNetwork(b, n, 8))
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		pairs := make([][2]int, 256)
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		if n == 300 {
			for _, mode := range []DirectedMode{DirectedPlain, DirectedAStar} {
				b.Run(mode.String(), func(b *testing.B) {
					run(b, aux, pairs, &Options{Queue: graph.QueueBinary, Directed: mode})
				})
			}
		}
		resident := &keepRows{rows: make(map[int][]float32), build: true}
		for _, p := range pairs {
			if _, err := aux.Route(p[0], p[1], &Options{Directed: DirectedAStar, Bound: resident}); err != nil && !errors.Is(err, ErrNoRoute) {
				b.Fatal(err)
			}
		}
		for _, row := range []struct {
			name string
			rows BoundRows
		}{{"absent", &keepRows{}}, {"resident", resident}} {
			b.Run(fmt.Sprintf("astar/row=%s/n=%d", row.name, n), func(b *testing.B) {
				run(b, aux, pairs, &Options{Queue: graph.QueueBinary, Directed: DirectedAStar, Bound: row.rows})
			})
		}
	}
}

// BenchmarkKShortest is Yen's K cheapest paths on the 300-node network of
// BenchmarkRouteProtected. It has no options to split: every spur search
// runs the binary heap, as every served search with a goal does.
func BenchmarkKShortest(b *testing.B) {
	aux, err := NewAux(benchNetwork(b, 300, 6))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{2, 5, 10} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := aux.KShortest(0, 150, k); err != nil && !errors.Is(err, ErrNoRoute) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouteProtected is one protected pair at n=300 under the
// paper's search (opts=paper: plain Dijkstra on the Fibonacci heap, the
// library default) and under the served one (opts=served).
func BenchmarkRouteProtected(b *testing.B) {
	aux, err := NewAux(benchNetwork(b, 300, 6))
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range []struct {
		name string
		opts *ProtectOptions
	}{{"paper", nil}, {"served", &ProtectOptions{Route: servedOpts}}} {
		b.Run("opts="+o.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := aux.RouteProtected(0, 150, o.opts)
				if err != nil && !errors.Is(err, ErrNoRoute) && !errors.Is(err, ErrNoBackup) {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAllPairsParallel(b *testing.B) {
	nw := benchNetwork(b, 100, 4)
	aux, err := NewAux(nw)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := aux.AllPairsParallel(nil, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRouteBounded(b *testing.B) {
	nw := benchNetwork(b, 300, 6)
	aux, err := NewAux(nw)
	if err != nil {
		b.Fatal(err)
	}
	for _, bound := range []int{4, 16} {
		b.Run(fmt.Sprintf("maxHops=%d", bound), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := aux.RouteBounded(0, 150, bound, nil); err != nil && !errors.Is(err, ErrNoRoute) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouteFrom is the cost of one SourceTree miss — Corollary 1's
// single-source pass, cycling over every source — on the serving queue
// (bucket) and on the binary heap it replaced there, at the whole-stack
// benchmark's mid_tree size (n=100) and at big_read's (n=300). scans/op
// counts bucket scans or heap pops, X-shore nodes only either way: equal
// rows mean the bucket width met Dial's condition.
func BenchmarkRouteFrom(b *testing.B) {
	for _, kind := range []graph.QueueKind{graph.QueueBucket, graph.QueueBinary} {
		for _, n := range []int{100, 300} {
			nw := benchNetwork(b, n, 8)
			aux, err := NewAux(nw)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%v/n=%d", kind, n), func(b *testing.B) {
				opts := &Options{Queue: kind}
				scans := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := aux.RouteFrom(i%n, opts)
					if err != nil {
						b.Fatal(err)
					}
					scans += st.settled
				}
				b.ReportMetric(float64(scans)/float64(b.N), "scans/op")
			})
		}
	}
}
