package dist

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/topo"
	"lightpath/internal/workload"
)

func TestAllPairsPipelinedMatchesCore(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 5; trial++ {
		tp := topo.RandomSparse(6+rng.Intn(8), 3, 5, rng)
		nw, err := workload.Build(tp, workload.RestrictedSpec(3), rng)
		if err != nil {
			t.Fatal(err)
		}
		costs, stats, err := AllPairsPipelined(nw)
		if err != nil {
			t.Fatal(err)
		}
		aux, err := core.NewAux(nw)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := aux.AllPairs(nil)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < tp.N; s++ {
			for d := 0; d < tp.N; d++ {
				a, b := costs[s][d], ref.Costs[s][d]
				if math.IsInf(a, 1) != math.IsInf(b, 1) {
					t.Fatalf("trial %d (%d,%d): reachability disagrees", trial, s, d)
				}
				if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-9 {
					t.Fatalf("trial %d (%d,%d): %v != %v", trial, s, d, a, b)
				}
			}
		}
		if stats.Messages <= 0 || stats.Rounds <= 0 {
			t.Fatalf("stats empty: %+v", stats)
		}
	}
}

// TestPipelinedBeatsSequentialRounds: the pipelined execution's round
// count is (much) smaller than the sequential composition's, while
// message totals match — the point of Corollary 2's concurrency.
func TestPipelinedBeatsSequentialRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	tp := topo.Ring(12)
	nw, err := workload.Build(tp, workload.RestrictedSpec(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	_, seqStats, err := AllPairs(nw)
	if err != nil {
		t.Fatal(err)
	}
	_, pipStats, err := AllPairsPipelined(nw)
	if err != nil {
		t.Fatal(err)
	}
	if pipStats.Messages != seqStats.Messages {
		t.Fatalf("message totals differ: pipelined %d, sequential %d",
			pipStats.Messages, seqStats.Messages)
	}
	if pipStats.Rounds >= seqStats.Rounds {
		t.Fatalf("pipelined rounds %d should beat sequential %d",
			pipStats.Rounds, seqStats.Rounds)
	}
	// With n concurrent sources, pipelined rounds ≈ one source's rounds.
	if pipStats.Rounds > seqStats.Rounds/4 {
		t.Fatalf("pipelined rounds %d not substantially below sequential %d",
			pipStats.Rounds, seqStats.Rounds)
	}
}

func TestAllPairsPipelinedNil(t *testing.T) {
	if _, _, err := AllPairsPipelined(nil); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("nil: %v", err)
	}
}

func TestAllPairsPipelinedMessagesBound(t *testing.T) {
	// Corollary 2: O(k²n²) messages. Check the constant is modest.
	rng := rand.New(rand.NewSource(97))
	tp := topo.RandomSparse(20, 3, 5, rng)
	k := 3
	nw, err := workload.Build(tp, workload.RestrictedSpec(k), rng)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := AllPairsPipelined(nw)
	if err != nil {
		t.Fatal(err)
	}
	n := nw.NumNodes()
	if stats.Messages > 4*k*k*n*n {
		t.Fatalf("messages %d exceed 4k²n² = %d", stats.Messages, 4*k*k*n*n)
	}
}

// stepLog wraps a multiProgram and records every inbox it is handed, in
// call order, as (round, node, wire, source, λ) rows. Within a wire an
// inbox keeps send order, so the rows follow the order in which the
// previous round's Steps ran the instances.
type stepLog struct {
	*multiProgram
	rows [][5]int
}

func (l *stepLog) Step(node, round int, inbox []Delivery[multiMsg], send Send[multiMsg]) {
	for _, d := range inbox {
		l.rows = append(l.rows, [5]int{round, node, d.Wire, int(d.Msg.Src), int(d.Msg.M.Lambda)})
	}
	l.multiProgram.Step(node, round, inbox, send)
}

// TestPipelinedInstancesStepInSourceOrder: the per-source Steps of a
// pipelined run follow source order, so within a wire an inbox lists
// its sources in ascending order, and every run of one execution sends
// the same messages in the same order.
func TestPipelinedInstancesStepInSourceOrder(t *testing.T) {
	nw := paperNet(t)
	n := nw.NumNodes()
	var first [][5]int
	for run := 0; run < 20; run++ {
		l := &stepLog{multiProgram: newMultiProgram(nw)}
		rt, err := NewRuntime[multiMsg](n, wiresOf(nw), l)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(l.rows); i++ {
			if a, b := l.rows[i-1], l.rows[i]; [3]int(a[:3]) == [3]int(b[:3]) && a[3] > b[3] {
				t.Fatalf("run %d: source %d after source %d in one wire of an inbox (round, node, wire %v)", run, b[3], a[3], b[:3])
			}
		}
		if run == 0 {
			first = l.rows
		} else if !slices.Equal(l.rows, first) {
			t.Fatalf("run %d saw a different inbox sequence from run 0", run)
		}
	}
}
