package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

// TestConcurrentRoutes hammers one shared Aux from many goroutines; run
// with -race this verifies the immutability claim on the compiled graph.
func TestConcurrentRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	tp := topo.RandomSparse(40, 4, 5, rng)
	nw, err := workload.Build(tp, workload.RestrictedSpec(4), rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}

	// Reference answers computed serially.
	type query struct{ s, d int }
	queries := make([]query, 24)
	want := make([]float64, len(queries))
	qrng := rand.New(rand.NewSource(7))
	for i := range queries {
		queries[i] = query{s: qrng.Intn(tp.N), d: qrng.Intn(tp.N)}
		res, err := a.Route(queries[i].s, queries[i].d, nil)
		if err != nil {
			want[i] = -1
		} else {
			want[i] = res.Cost
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8*len(queries))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				res, err := a.Route(q.s, q.d, nil)
				switch {
				case err != nil && want[i] != -1:
					errCh <- err
				case err == nil && want[i] == -1:
					errCh <- errMismatch(q.s, q.d, res.Cost, -1)
				case err == nil && math.Abs(res.Cost-want[i]) > 1e-9:
					errCh <- errMismatch(q.s, q.d, res.Cost, want[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

type mismatchError struct {
	s, d      int
	got, want float64
}

func (e *mismatchError) Error() string {
	return "concurrent route mismatch"
}

func errMismatch(s, d int, got, want float64) error {
	return &mismatchError{s: s, d: d, got: got, want: want}
}

// TestAllPairsParallelMatchesSerial: the parallel all-pairs equals the
// serial one for every worker count.
func TestAllPairsParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	tp := topo.Grid(4, 5)
	nw, err := workload.Build(tp, workload.RestrictedSpec(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := a.AllPairs(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 100} {
		par, err := a.AllPairsParallel(nil, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for s := range serial.Costs {
			for d := range serial.Costs[s] {
				x, y := serial.Costs[s][d], par.Costs[s][d]
				if math.IsInf(x, 1) != math.IsInf(y, 1) || (!math.IsInf(x, 1) && math.Abs(x-y) > 1e-9) {
					t.Fatalf("workers=%d (%d,%d): %v != %v", workers, s, d, y, x)
				}
			}
		}
	}
}

// TestConcurrentMixedOperations interleaves Route, RouteFrom, KShortest
// and RouteProtected on one shared Aux (race check for the full read-only
// surface), each reply checked against the same query run alone.
// KShortest and the protection backup each patch a private copy-on-write
// clone of G′; on the sparse network G′ spans several 32-node spine
// pages, so those page copies run beside readers of the pages copied.
func TestConcurrentMixedOperations(t *testing.T) {
	paper, err := topo.PaperExample(topo.DefaultPaperExampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(311))
	sparse, err := workload.Build(topo.RandomSparse(30, 3, 4, rng), workload.RestrictedSpec(4), rng)
	if err != nil {
		t.Fatal(err)
	}
	protect := &ProtectOptions{Route: servedOpts, PrimaryCandidates: 2}
	for name, nw := range map[string]*wdm.Network{"paper": paper, "sparse": sparse} {
		a := mustAux(t, nw)
		if name == "sparse" && a.NumAuxNodes() < 4*32 {
			t.Fatalf("sparse: G′ has %d nodes, want several spine pages", a.NumAuxNodes())
		}
		n := nw.NumNodes()
		const rounds = 20
		// answer renders one query's reply, or its error, for comparison.
		answer := func(verb, i int) string {
			s, d := i%n, (i+n/2)%n
			switch verb {
			case 0:
				res, err := a.Route(s, d, nil)
				if err != nil {
					return err.Error()
				}
				return fmt.Sprint(res.Cost)
			case 1:
				st, err := a.RouteFrom(s, nil)
				if err != nil {
					return err.Error()
				}
				return fmt.Sprint(st.Dist(d))
			case 2:
				paths, err := a.KShortest(s, d, 3)
				if err != nil {
					return err.Error()
				}
				costs := make([]float64, len(paths))
				for j, p := range paths {
					costs[j] = p.Cost
				}
				return fmt.Sprint(costs)
			default:
				pair, err := a.RouteProtected(s, d, protect)
				if err != nil {
					return err.Error()
				}
				return fmt.Sprint(pair.Primary.Cost, pair.Backup.Cost)
			}
		}
		var want [4][rounds]string
		for verb := range want {
			for i := range want[verb] {
				want[verb][i] = answer(verb, i)
			}
		}
		var wg sync.WaitGroup
		errCh := make(chan string, 8*rounds)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(verb int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if got := answer(verb, i); got != want[verb][i] {
						errCh <- fmt.Sprintf("%s: verb %d query %d: %s concurrently, %s alone", name, verb, i, got, want[verb][i])
					}
				}
			}(g % 4)
		}
		wg.Wait()
		close(errCh)
		for msg := range errCh {
			t.Error(msg)
		}
	}
}
