package dist

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/topo"
	"lightpath/internal/workload"
)

func TestAsyncErrors(t *testing.T) {
	nw := paperNet(t)
	if _, _, err := RouteAsync(nil, 0, 1, nil); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("nil network: %v", err)
	}
	if _, _, err := RouteAsync(nw, -1, 1, nil); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad source: %v", err)
	}
	if _, _, err := RouteAsync(nw, 0, 99, nil); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad dest: %v", err)
	}
	if _, _, err := RouteAsync(nw, 6, 0, nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unreachable: %v", err)
	}
	res, _, err := RouteAsync(nw, 2, 2, nil)
	if err != nil || res.Cost != 0 {
		t.Fatalf("trivial: %+v %v", res, err)
	}
}

// TestAsyncMatchesSync: correctness is delay-independent — the
// asynchronous run converges to the same optimum as the synchronous one
// across many delay seeds.
func TestAsyncMatchesSync(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		tp := topo.RandomSparse(5+rng.Intn(12), 3, 5, rng)
		nw, err := workload.Build(tp, workload.RestrictedSpec(4), rng)
		if err != nil {
			t.Fatal(err)
		}
		s, d := rng.Intn(tp.N), rng.Intn(tp.N)
		sres, serr := Route(nw, s, d)
		for seed := int64(0); seed < 3; seed++ {
			ares, astats, aerr := RouteAsync(nw, s, d, &AsyncOptions{Seed: seed})
			if (serr == nil) != (aerr == nil) {
				t.Fatalf("trial %d seed %d: reachability disagrees: %v vs %v", trial, seed, serr, aerr)
			}
			if serr != nil {
				continue
			}
			if math.Abs(sres.Cost-ares.Cost) > 1e-9 {
				t.Fatalf("trial %d seed %d: async %v != sync %v", trial, seed, ares.Cost, sres.Cost)
			}
			if s != d {
				if err := ares.Path.Validate(nw, s, d); err != nil {
					t.Fatalf("async path invalid: %v", err)
				}
				if astats.Messages <= 0 || astats.VirtualTime <= 0 {
					t.Fatalf("async stats not populated: %+v", astats)
				}
			}
		}
	}
}

// TestAsyncCostsMoreMessages: asynchrony cannot reduce the message count
// below the synchronous run's (per-delivery announcements cannot
// coalesce within a round), and typically increases it.
func TestAsyncCostsMoreMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	tp := topo.RandomSparse(40, 4, 5, rng)
	nw, err := workload.Build(tp, workload.RestrictedSpec(4), rng)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Route(nw, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	_, astats, err := RouteAsync(nw, 0, 20, &AsyncOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if astats.Messages < sres.Stats.Messages {
		t.Fatalf("async sent %d messages, sync %d — async should not be cheaper",
			astats.Messages, sres.Stats.Messages)
	}
}

func TestAsyncDeterministicPerSeed(t *testing.T) {
	nw := paperNet(t)
	_, a, err := RouteAsync(nw, 0, 6, &AsyncOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := RouteAsync(nw, 0, 6, &AsyncOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different stats: %+v vs %+v", a, b)
	}
}

func TestAsyncMessageCap(t *testing.T) {
	nw := paperNet(t)
	_, _, err := RouteAsync(nw, 0, 6, &AsyncOptions{MaxMessages: 1})
	if !errors.Is(err, ErrNoQuiescence) {
		t.Fatalf("message cap: %v", err)
	}
}

func TestAsyncDelayDefaults(t *testing.T) {
	var o *AsyncOptions
	lo, hi := o.delays()
	if lo != 0.5 || hi != 1.5 {
		t.Fatalf("default delays = %v,%v", lo, hi)
	}
	if o.seed() != 1 {
		t.Fatalf("default seed = %d", o.seed())
	}
	o2 := &AsyncOptions{MinDelay: 1, MaxDelay: 2, Seed: 9}
	lo, hi = o2.delays()
	if lo != 1 || hi != 2 || o2.seed() != 9 {
		t.Fatal("explicit options not honored")
	}
}

func TestAsyncRevisitInstance(t *testing.T) {
	nw, s, d, err := workload.RevisitInstance()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RouteAsync(nw, s, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-workload.RevisitOptimalCost) > 1e-9 {
		t.Fatalf("cost = %v, want %v", res.Cost, workload.RevisitOptimalCost)
	}
}

// TestAsyncHeavyDelaySkew: extreme delay variance still converges to the
// optimum (message reordering safety).
func TestAsyncHeavyDelaySkew(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	tp := topo.Grid(4, 4)
	nw, err := workload.Build(tp, workload.RestrictedSpec(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Route(nw, 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		ares, _, err := RouteAsync(nw, 0, 15, &AsyncOptions{
			Seed:     seed,
			MinDelay: 0.01,
			MaxDelay: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ares.Cost-sres.Cost) > 1e-9 {
			t.Fatalf("seed %d: async %v != sync %v", seed, ares.Cost, sres.Cost)
		}
	}
}

// TestAsyncDuplicationFaults: at-least-once delivery (random message
// duplication) must not change the computed optimum — label relaxation
// is idempotent.
func TestAsyncDuplicationFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 10; trial++ {
		tp := topo.RandomSparse(6+rng.Intn(12), 3, 5, rng)
		nw, err := workload.Build(tp, workload.RestrictedSpec(3), rng)
		if err != nil {
			t.Fatal(err)
		}
		s, d := rng.Intn(tp.N), rng.Intn(tp.N)
		if s == d {
			continue
		}
		base, berr := Route(nw, s, d)
		for _, dup := range []float64{0.3, 1.0} {
			res, astats, err := RouteAsync(nw, s, d, &AsyncOptions{Seed: int64(trial), DupProb: dup})
			if (berr == nil) != (err == nil) {
				t.Fatalf("trial %d dup=%v: reachability disagrees: %v vs %v", trial, dup, berr, err)
			}
			if berr != nil {
				continue
			}
			if math.Abs(res.Cost-base.Cost) > 1e-9 {
				t.Fatalf("trial %d dup=%v: cost %v != %v", trial, dup, res.Cost, base.Cost)
			}
			if dup == 1.0 && astats.Messages <= base.Stats.Messages {
				t.Fatalf("trial %d: full duplication should inflate messages (%d vs sync %d)",
					trial, astats.Messages, base.Stats.Messages)
			}
		}
	}
}

// TestAsyncFiguresPinned pins the asynchronous model's figures on the
// paper example at one seed, with and without duplication faults. They
// move if the RNG is drawn in another order (per send: the duplication
// draw, then one delay per copy) or if equal-time deliveries are
// reordered.
func TestAsyncFiguresPinned(t *testing.T) {
	nw := paperNet(t)
	for _, c := range []struct {
		dup         float64
		msgs, peak  int
		virtualTime float64
	}{
		{0, 34, 13, 4.789565083604626},
		{0.3, 33, 18, 3.3100720804277115},
	} {
		res, st, err := RouteAsync(nw, 0, 6, &AsyncOptions{Seed: 7, DupProb: c.dup})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != 20 || st.Messages != c.msgs || st.MaxInFlight != c.peak || st.VirtualTime != c.virtualTime {
			t.Fatalf("dup=%v: cost %v, %d messages, peak %d, virtual time %v; want 20, %d, %d, %v",
				c.dup, res.Cost, st.Messages, st.MaxInFlight, st.VirtualTime, c.msgs, c.peak, c.virtualTime)
		}
	}
}
