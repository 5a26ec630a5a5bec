package core

import (
	"flag"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/cli"
	"lightpath/internal/graph"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
)

// servingNetwork resolves wdmserve's topology flags as wdmserve and the
// whole-stack benchmark do, defaults included.
func servingNetwork(t *testing.T, args ...string) *wdm.Network {
	t.Helper()
	fs := flag.NewFlagSet("net", flag.ContinueOnError)
	var nf cli.NetFlags
	nf.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	nw, err := nf.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestBucketTreeScansOnce is the deterministic gate that the width rule
// meets Dial's condition where it is served: on the three networks of the
// whole-stack benchmark, installed and at the end of a delta chain of
// holds, releases and failures, every SourceTree costs exactly one scan
// per X-shore node it reaches. A weight range the window stopped covering,
// or a width above the lightest channel, shows here as rescans before it
// shows anywhere as latency.
func TestBucketTreeScansOnce(t *testing.T) {
	for name, args := range map[string][]string{
		"nsfnet k=8":   {"-topo", "nsfnet", "-k", "8", "-seed", "1"},
		"sparse n=100": {"-topo", "sparse", "-n", "100", "-k", "8", "-seed", "1"},
		"sparse n=300": {"-topo", "sparse", "-n", "300", "-k", "8", "-seed", "1"},
	} {
		t.Run(name, func(t *testing.T) {
			a := mustAux(t, servingNetwork(t, args...))
			churned := deepChain(t, a, rand.New(rand.NewSource(19)), 400)
			if churned.bucketWidth != a.bucketWidth {
				t.Fatalf("delta chain changed the bucket width: %v → %v", a.bucketWidth, churned.bucketWidth)
			}
			for _, a := range []*Aux{a, churned} {
				scans := 0
				for s := 0; s < a.nw.NumNodes(); s++ {
					st, err := a.RouteFrom(s, bucketOpts)
					if err != nil {
						t.Fatal(err)
					}
					if st.Rescans() != 0 {
						t.Fatalf("depth %d source %d: %d scans, %d of them rescans", a.DeltaDepth(), s, st.settled, st.Rescans())
					}
					scans += st.settled
				}
				if scans == 0 {
					t.Fatalf("depth %d: no tree scanned anything", a.DeltaDepth())
				}
			}
		})
	}
}

// reweigh rebuilds nw with every channel weight drawn afresh.
func reweigh(t *testing.T, nw *wdm.Network, weight func() float64) *wdm.Network {
	t.Helper()
	out := wdm.NewNetwork(nw.NumNodes(), nw.K())
	out.SetConverter(nw.Converter())
	for _, l := range nw.Links() {
		chans := make([]wdm.Channel, len(l.Channels))
		for i, ch := range l.Channels {
			chans[i] = wdm.Channel{Lambda: ch.Lambda, Weight: weight()}
		}
		if _, err := out.AddLink(l.From, l.To, chans); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestBucketTreeBeyondTheWindow: nothing about the answers depends on the
// weights sitting in a range the window covers. Channel weights spread
// log-uniformly over 10⁻³ … 10³ force the width above the lightest
// channel, and a layout with zero-weight channels has no positive lower
// bound at all; on both, installed and churned, every bucket-built tree is
// the heap-built tree bit for bit (checkPassThrough) — only scans rise.
// There a bucket of the backward bound pass holds nodes that improve one
// another, so this is also where stopping at s instead of at the end of
// s's bucket would leave a potential above a true distance: the bound
// must stay consistent and admissible and A* bit-equal to plain.
func TestBucketTreeBeyondTheWindow(t *testing.T) {
	for conv, spec := range directedConvs {
		base := directedFixtures(t, spec)["sparse"]
		t.Run(conv, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1919))
			wide := mustAux(t, reweigh(t, base, func() float64 { return math.Pow(10, -3+6*rng.Float64()) }))
			if wide.bucketWidth <= 1e-3*1.5 {
				t.Fatalf("width %v on weights spanning 10⁻³…10³: the window cannot cover that range at the lightest channel", wide.bucketWidth)
			}
			zeros := mustAux(t, reweigh(t, base, func() float64 {
				if rng.Intn(4) == 0 {
					return 0
				}
				return 1 + 9*rng.Float64()
			}))
			rescans := 0
			for _, a := range []*Aux{wide, deepChain(t, wide, rng, 200), zeros, deepChain(t, zeros, rng, 200)} {
				checkPassThrough(t, a, rng, false)
				checkBoundConsistent(t, a, rng, 60)
				checkDirectedAgree(t, a, rng)
				for s := 0; s < a.nw.NumNodes(); s++ {
					st, err := a.RouteFrom(s, bucketOpts)
					if err != nil {
						t.Fatal(err)
					}
					rescans += st.Rescans()
				}
			}
			if rescans == 0 {
				t.Fatal("no tree rescanned anything: the fixtures no longer leave the window")
			}
		})
	}
}

// TestBucketWidthMisjudged: NewAuxWithLayout checks a residual's topology
// against the layout, not its weights, so a residual can carry weights the
// layout's width was never sized for — here ten thousand times heavier,
// far beyond the window. Keys are then clamped into the window and popped
// early; trees must still be the heap's, and the bound pass must not take
// an early pop of s for a final one.
func TestBucketWidthMisjudged(t *testing.T) {
	layout := directedFixtures(t, directedConvs["uniform"])["sparse"]
	rng := rand.New(rand.NewSource(77))
	heavy := reweigh(t, layout, func() float64 { return 1e4 * (1 + 9*rng.Float64()) })
	a, err := NewAuxWithLayout(layout, heavy)
	if err != nil {
		t.Fatal(err)
	}
	if a.bucketWidth > 10 {
		t.Fatalf("width %v follows the residual; the test wants the layout's", a.bucketWidth)
	}
	checkPassThrough(t, a, rng, false)
	checkBoundConsistent(t, a, rng, 200)
	checkDirectedAgree(t, a, rng)
}

// TestBucketWidthFromLayout: the width comes from the layout, not from
// the residual compiled inside it, and degenerate layouts yield a width
// the kernel replaces rather than one it divides by.
func TestBucketWidthFromLayout(t *testing.T) {
	layout := residualTrap(t) // weights 1 … 10, conversion 0.5
	if got := mustAux(t, layout).bucketWidth; got != 1 {
		t.Errorf("width %v, want the lightest channel 1", got)
	}
	residual, err := layout.PatchChannels(map[int][]wdm.Channel{0: nil, 1: {{Lambda: 1, Weight: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAuxWithLayout(layout, residual)
	if err != nil {
		t.Fatal(err)
	}
	if a.bucketWidth != 1 {
		t.Errorf("width %v from a residual whose lightest channel is 4, want the layout's 1", a.bucketWidth)
	}
	empty := wdm.NewNetwork(3, 2)
	if _, err := empty.AddLink(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	ea := mustAux(t, empty)
	st, err := ea.RouteFrom(0, bucketOpts)
	if err != nil || st.Reachable(1) {
		t.Errorf("channel-less network: width %v, tree %v, err %v", ea.bucketWidth, st, err)
	}
	paper, err := topo.PaperExample(topo.DefaultPaperExampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	pa := mustAux(t, paper)
	for s := 0; s < paper.NumNodes(); s++ {
		st, err := pa.RouteFrom(s, bucketOpts)
		if err != nil {
			t.Fatal(err)
		}
		if st.Rescans() != 0 {
			t.Errorf("paper example source %d: %d rescans on integer weights at width %v", s, st.Rescans(), pa.bucketWidth)
		}
	}
	if !graph.Finite(pa.bucketWidth) || pa.bucketWidth <= 0 {
		t.Errorf("paper example width %v", pa.bucketWidth)
	}
}

// TestTreePays: the break-even multiplicity is ⌈|X shore| / n⌉ under
// astar, never below 2, 2 under the modes whose point query is a heap
// search over G′, a constant of the layout down a delta chain — and 8 on
// the benchmark's 100- and 300-node networks, where EXPERIMENTS.md X20
// measured the crossover.
func TestTreePays(t *testing.T) {
	line := func(n, k int) *wdm.Network {
		nw := wdm.NewNetwork(n, k)
		for v := 0; v+1 < n; v++ {
			chans := make([]wdm.Channel, k)
			for l := range chans {
				chans[l] = wdm.Channel{Lambda: wdm.Wavelength(l), Weight: 1}
			}
			if _, err := nw.AddLink(v, v+1, chans); err != nil {
				t.Fatal(err)
			}
		}
		return nw
	}
	for _, tc := range []struct {
		name string
		nw   *wdm.Network
		want int
	}{
		{"k=1: one X node per node at most", line(6, 1), 2},
		// 4 nodes, node 0 has no in-links: X shore 3×5 = 15, ⌈15/4⌉ = 4.
		{"a node with no in-links", line(4, 5), 4},
		// 10 nodes × 3 wavelengths, one in-link each but node 0: ⌈27/10⌉ = 3.
		{"rounds up", line(10, 3), 3},
		{"no links at all", wdm.NewNetwork(3, 4), 2},
		{"sparse n=100 k=8", servingNetwork(t, "-topo", "sparse", "-n", "100", "-k", "8", "-seed", "1"), 8},
		{"sparse n=300 k=8", servingNetwork(t, "-topo", "sparse", "-n", "300", "-k", "8", "-seed", "1"), 8},
	} {
		a := mustAux(t, tc.nw)
		if got := a.TreePays(DirectedAStar); got != tc.want {
			t.Errorf("%s: astar break-even %d, want %d", tc.name, got, tc.want)
		}
		if got := a.TreePays(DirectedPlain); got != 2 {
			t.Errorf("%s: plain break-even %d, want 2", tc.name, got)
		}
	}
	a := mustAux(t, line(4, 5))
	if churned := deepChain(t, a, rand.New(rand.NewSource(20)), 50); churned.TreePays(DirectedAStar) != 4 {
		t.Errorf("delta chain changed the break-even: 4 → %d", churned.TreePays(DirectedAStar))
	}
}
