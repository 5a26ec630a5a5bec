package obs

import (
	"fmt"
	"strings"
	"time"
)

// TraceHop is one physical hop of a traced route with its cost
// anatomy: the conversion paid at the hop's tail (0 on the first hop
// or when the wavelength continues) plus the link traversal weight.
// Wavelength is the 0-based index (the paper's λ_{i+1}).
type TraceHop struct {
	Link       int     `json:"link"`
	From       int     `json:"from"`
	To         int     `json:"to"`
	Wavelength int32   `json:"lambda"`
	ConvCost   float64 `json:"conv_cost"`
	LinkCost   float64 `json:"link_cost"`
	Cumulative float64 `json:"cumulative"`
}

// RouteTrace records the full anatomy of one routing query: what graph
// the solver searched, how much of it the search touched, which
// caches and epochs were involved, and the per-hop breakdown of the
// winning semilightpath's Eq. (1) cost. internal/core fills the search
// fields when Options.Trace is set; internal/engine fills the
// epoch/cache/retry fields around it.
type RouteTrace struct {
	Source int    `json:"source"`
	Dest   int    `json:"dest"`
	Epoch  uint64 `json:"epoch"` // snapshot epoch the query was pinned to

	// CacheHit reports whether a SourceTree for (Source, Epoch) was
	// resident in the engine's LRU when the query started.
	CacheHit bool `json:"cache_hit"`

	// Search anatomy (filled by core).
	AuxNodes int `json:"aux_nodes"` // |V'_{s,t}| incl. virtual super terminals
	AuxArcs  int `json:"aux_arcs"`  // |E'_{s,t}| incl. the super terminals' |Y_s| + |X_t| arcs
	Settled  int `json:"settled"`   // Dijkstra pops, including the equal-key drain
	Relaxed  int `json:"relaxed"`   // arc relaxations

	// Conversion economics of the winning path: switches actually taken
	// vs. distinct different-wavelength conversions that were available
	// at the path's intermediate nodes.
	ConversionsTaken     int `json:"conversions_taken"`
	ConversionsAvailable int `json:"conversions_available"`

	// Attempts counts route+allocate rounds (1 = first try landed);
	// filled by Engine.RouteAndAllocateTraced.
	Attempts int `json:"attempts,omitempty"`

	Blocked bool          `json:"blocked"` // no semilightpath existed
	Cost    float64       `json:"cost"`
	Hops    []TraceHop    `json:"hops,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// LinkCostTotal sums the link-traversal component of the hop breakdown.
func (t *RouteTrace) LinkCostTotal() float64 {
	total := 0.0
	for _, h := range t.Hops {
		total += h.LinkCost
	}
	return total
}

// ConvCostTotal sums the conversion component of the hop breakdown.
func (t *RouteTrace) ConvCostTotal() float64 {
	total := 0.0
	for _, h := range t.Hops {
		total += h.ConvCost
	}
	return total
}

// String renders a compact single-line summary for logs; the wdmserve
// explain verb renders the full per-hop table itself.
func (t *RouteTrace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d->%d epoch %d", t.Source, t.Dest, t.Epoch)
	if t.Blocked {
		b.WriteString(" BLOCKED")
	} else {
		fmt.Fprintf(&b, " cost %g (%d hops, %d/%d conversions)",
			t.Cost, len(t.Hops), t.ConversionsTaken, t.ConversionsAvailable)
	}
	fmt.Fprintf(&b, " aux %dn/%da settled %d relaxed %d", t.AuxNodes, t.AuxArcs, t.Settled, t.Relaxed)
	if t.CacheHit {
		b.WriteString(" cache-hit")
	} else {
		b.WriteString(" cache-miss")
	}
	if t.Attempts > 1 {
		fmt.Fprintf(&b, " attempts %d", t.Attempts)
	}
	fmt.Fprintf(&b, " in %s", t.Elapsed)
	return b.String()
}
