package oracle

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lightpath/internal/baseline"
	"lightpath/internal/core"
	"lightpath/internal/dist"
	"lightpath/internal/graph"
	"lightpath/internal/wdm"
)

// linkOptions are the choices for one ordered pair's link at k = 2:
// absent, or Λ(e) ∈ {{λ1}, {λ2}, {λ1, λ2}} with each weight from the
// given set.
func linkOptions(weights []float64) [][]wdm.Channel {
	opts := [][]wdm.Channel{nil}
	for _, w := range weights {
		opts = append(opts, []wdm.Channel{{Lambda: 0, Weight: w}})
	}
	for _, w := range weights {
		opts = append(opts, []wdm.Channel{{Lambda: 1, Weight: w}})
	}
	for _, w1 := range weights {
		for _, w2 := range weights {
			opts = append(opts, []wdm.Channel{{Lambda: 0, Weight: w1}, {Lambda: 1, Weight: w2}})
		}
	}
	return opts
}

// convOptions are each node's converter: none, cheap (0.5, so
// Restriction 2 holds) or dear (3, so it fails). Every cost here and in
// linkOptions is dyadic, so float sums are exact and costs compare with ==.
var convOptions = []struct {
	name string
	conv wdm.Converter
}{
	{"none", wdm.NoConversion{}},
	{"cheap", wdm.UniformConversion{C: 0.5}},
	{"dear", wdm.UniformConversion{C: 3}},
}

// instance is one enumerated network: a link choice per ordered pair
// (u, v), u ≠ v, in row order, and a converter choice per node.
type instance struct {
	n     int
	links []int
	convs []int
}

// size orders failing instances: fewest channels first, then fewest
// converters.
func (in instance) size(opts [][]wdm.Channel) int {
	size := 0
	for _, l := range in.links {
		size += 4 * len(opts[l])
	}
	for _, c := range in.convs {
		if c != 0 {
			size++
		}
	}
	return size
}

// build returns the instance's network.
func (in instance) build(opts [][]wdm.Channel) *wdm.Network {
	nw := wdm.NewNetwork(in.n, 2)
	pair := 0
	for u := 0; u < in.n; u++ {
		for v := 0; v < in.n; v++ {
			if u == v {
				continue
			}
			if chans := opts[in.links[pair]]; chans != nil {
				if _, err := nw.AddLink(u, v, chans); err != nil {
					panic(err)
				}
			}
			pair++
		}
	}
	nodes := make(map[int]wdm.Converter)
	for v, c := range in.convs {
		nodes[v] = convOptions[c].conv
	}
	nw.SetConverter(wdm.PerNodeConversion{Nodes: nodes, Default: wdm.NoConversion{}})
	return nw
}

// describe lists the instance's links, with channels, and converters.
func (in instance) describe(opts [][]wdm.Channel) string {
	var b strings.Builder
	nw := in.build(opts)
	for _, l := range nw.Links() {
		fmt.Fprintf(&b, " %d→%d{", l.From, l.To)
		for i, ch := range l.Channels {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "λ%d:%g", ch.Lambda+1, ch.Weight)
		}
		b.WriteByte('}')
	}
	for v, c := range in.convs {
		fmt.Fprintf(&b, " conv%d=%s", v, convOptions[c].name)
	}
	return strings.TrimSpace(b.String())
}

// enumerate calls visit on every instance over n nodes whose links
// draw from opts, in counting order. Each node picks its own converter,
// or with perNode false one converter serves the whole network.
func enumerate(n int, opts [][]wdm.Channel, perNode bool, visit func(instance)) {
	in := instance{n: n, links: make([]int, n*(n-1)), convs: make([]int, n)}
	convDigits := 1
	if perNode {
		convDigits = n
	}
	digits := make([]int, len(in.links)+convDigits) // one odometer over links, then converters
	bases := make([]int, len(digits))
	for i := range bases {
		bases[i] = len(opts)
		if i >= len(in.links) {
			bases[i] = len(convOptions)
		}
	}
	for {
		copy(in.links, digits)
		for v := range in.convs {
			in.convs[v] = digits[len(in.links)+v%convDigits]
		}
		visit(in)
		i := 0
		for ; i < len(digits); i++ {
			if digits[i]++; digits[i] < bases[i] {
				break
			}
			digits[i] = 0
		}
		if i == len(digits) {
			return
		}
	}
}

// checkInstance compares every solver with Solve on every (s, t) of nw
// and returns the first disagreement.
func checkInstance(nw *wdm.Network) error {
	aux, err := core.NewAux(nw)
	if err != nil {
		return fmt.Errorf("compile: %v", err)
	}
	wg, err := baseline.NewWavelengthGraph(nw)
	if err != nil {
		return fmt.Errorf("wavelength graph: %v", err)
	}
	n := nw.NumNodes()
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			want, _, oErr := Solve(nw, s, t)
			if oErr != nil && !errors.Is(oErr, ErrNoRoute) {
				return fmt.Errorf("%d→%d: oracle: %v", s, t, oErr)
			}
			check := func(solver string, path *wdm.Semilightpath, cost float64, err error) error {
				switch {
				case (err == nil) != (oErr == nil):
					return fmt.Errorf("%d→%d: %s reports %v, oracle %v", s, t, solver, err, oErr)
				case err != nil:
					return nil
				case cost != want:
					return fmt.Errorf("%d→%d: %s costs %g, oracle %g", s, t, solver, cost, want)
				}
				if s == t && path.Len() != 0 {
					return fmt.Errorf("%d→%d: %s returns %d hops", s, t, solver, path.Len())
				}
				if err := path.Validate(nw, s, t); s != t && err != nil {
					return fmt.Errorf("%d→%d: %s path: %v", s, t, solver, err)
				}
				if got := path.Cost(nw); got != cost {
					return fmt.Errorf("%d→%d: %s path's Eq. (1) cost %g, reported %g", s, t, solver, got, cost)
				}
				return nil
			}
			for _, mode := range []core.DirectedMode{core.DirectedPlain, core.DirectedAStar} {
				r, err := aux.Route(s, t, &core.Options{Directed: mode})
				if err != nil {
					r = &core.Result{}
				}
				if err := check("core/"+mode.String(), r.Path, r.Cost, err); err != nil {
					return err
				}
			}
			if s == t {
				continue // the two references below route s ≠ t only
			}
			b, err := wg.Route(s, t, graph.QueueLinear) // baseline.FindSemilightpath on one graph per instance
			if err != nil {
				b = &baseline.Result{}
			}
			if err := check("baseline", b.Path, b.Cost, err); err != nil {
				return err
			}
			d, err := dist.Route(nw, s, t)
			if err != nil {
				d = &dist.Result{}
			}
			if err := check("dist", d.Path, d.Cost, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// runExhaustive checks every instance over n nodes and fails with the
// smallest disagreeing one.
func runExhaustive(t *testing.T, n int, weights []float64, perNode bool, wantInstances int) {
	opts := linkOptions(weights)
	start := time.Now()
	count, failures := 0, 0
	var worst instance
	var worstErr error
	enumerate(n, opts, perNode, func(in instance) {
		count++
		if err := checkInstance(in.build(opts)); err != nil {
			failures++
			if worstErr == nil || in.size(opts) < worst.size(opts) {
				worst = instance{n: n, links: append([]int(nil), in.links...), convs: append([]int(nil), in.convs...)}
				worstErr = err
			}
		}
	})
	t.Logf("n=%d, weights %v: %d instances in %v", n, weights, count, time.Since(start).Round(time.Millisecond))
	if count != wantInstances {
		t.Errorf("enumerated %d instances, want %d", count, wantInstances)
	}
	if worstErr != nil {
		t.Fatalf("%d of %d instances disagree; the smallest: %s: %v", failures, count, worst.describe(opts), worstErr)
	}
}

// TestExhaustiveTwoNodes: on every network with n = 2 and k = 2 (link
// absent or Λ(e) ∈ {{λ1}, {λ2}, {λ1, λ2}}, weights from {1, 2}, each
// node's converter none, cheap or dear: 9² · 3² instances), the core
// search under both directed modes, CFZ'96 and the distributed
// algorithm each return the oracle's cost on every (s, t), and every
// returned path's Eq. (1) cost is its reported cost. No optimum on two
// nodes converts (a conversion needs a third node or a revisit, which
// costs more than the direct link), so the gadgets' arcs are checked on
// three nodes below.
func TestExhaustiveTwoNodes(t *testing.T) {
	runExhaustive(t, 2, []float64{1, 2}, true, 729)
}

// TestExhaustiveThreeNodesUnit is the same check on every network with
// n = 3, k = 2, unit weights and one converter for the whole network:
// 4⁶ · 3 instances, about 0.8 s on a 2-core Xeon. Dropping one gadget
// conversion arc from the compile fails it on 0→1{λ1} 1→2{λ2} with cheap
// conversion. With a converter per node (4⁶ · 3³ = 110,592 instances)
// the run takes about 7.5 s there, too long for the tier-1 suite.
func TestExhaustiveThreeNodesUnit(t *testing.T) {
	runExhaustive(t, 3, []float64{1}, false, 12288)
}
