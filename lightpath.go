// Package lightpath is the public API of this repository: optimal
// lightpath/semilightpath routing in large WDM optical networks, a full
// reproduction of Liang & Shen, "Improved Lightpath (Wavelength) Routing
// in Large WDM Networks" (ICDCS 1998 / IEEE Trans. Commun. 2000).
//
// # Model
//
// A WDM network is a directed graph whose links each carry a set of
// available wavelengths with per-wavelength traversal costs, and whose
// nodes can (partially) convert between wavelengths at a cost. A
// semilightpath is a chain of links with one wavelength per link; its
// cost is the sum of link costs plus the conversion costs at junctions
// where the wavelength changes (the paper's Equation 1). A lightpath is
// the conversion-free special case.
//
// # Quick start
//
//	nw := lightpath.NewNetwork(4, 2) // 4 nodes, wavelengths λ0, λ1
//	nw.AddLink(0, 1, []lightpath.Channel{{Lambda: 0, Weight: 1.0}})
//	nw.AddLink(1, 2, []lightpath.Channel{{Lambda: 1, Weight: 2.0}})
//	nw.SetConverter(lightpath.UniformConversion{C: 0.5})
//	res, err := lightpath.Find(nw, 0, 2, nil)
//	// res.Path holds the hops with wavelength assignments,
//	// res.Conversions(nw) the converter switch settings.
//
// For many queries on one network, compile once and reuse:
//
//	router, _ := lightpath.NewRouter(nw)
//	res, _ := router.Route(0, 2, nil)
//	tree, _ := router.RouteFrom(0, nil)     // one-to-all
//	all, _ := router.AllPairs(nil)          // n×n cost matrix
//
// The distributed variant (Theorem 3) runs synchronous rounds, stepped in
// node order, with messages only over physical links:
//
//	dres, _ := lightpath.FindDistributed(nw, 0, 2)
//	// dres.Stats.Messages ≤ O(km), dres.Stats.Rounds ≤ O(kn)
//
// # Structure
//
// The implementation lives in internal packages: internal/core (the
// paper's auxiliary-graph construction), internal/baseline (the
// Chlamtac–Faragó–Zhang comparator), internal/dist (the distributed
// algorithm), internal/topo and internal/workload (instance generators),
// and internal/bench (the experiment harness behind the cmd/wdmbench
// binary). This package re-exports the stable surface, and builds online
// circuit switching (SessionManager, admission.go) directly on the
// routing engine of internal/engine.
package lightpath

import (
	"lightpath/internal/core"
	"lightpath/internal/dist"
	"lightpath/internal/wdm"
)

// Network model re-exports (package wdm).
type (
	// Network is a WDM network: nodes, directed links with wavelength
	// availability, and a conversion cost function.
	Network = wdm.Network
	// Channel is one (wavelength, cost) availability entry of a link.
	Channel = wdm.Channel
	// Link is a directed fiber with its available channels.
	Link = wdm.Link
	// Wavelength identifies a wavelength as a 0-based index.
	Wavelength = wdm.Wavelength
	// Semilightpath is a routed path: links plus per-link wavelengths.
	Semilightpath = wdm.Semilightpath
	// Hop is one step of a semilightpath.
	Hop = wdm.Hop
	// Conversion records a wavelength switch at a node.
	Conversion = wdm.Conversion
	// Converter is the wavelength-conversion cost function interface.
	Converter = wdm.Converter
	// NoConversion forbids all conversion (pure lightpath routing).
	NoConversion = wdm.NoConversion
	// UniformConversion allows any-to-any conversion at fixed cost.
	UniformConversion = wdm.UniformConversion
	// DistanceConversion models limited-range converters.
	DistanceConversion = wdm.DistanceConversion
	// TableConversion is an explicit sparse conversion table.
	TableConversion = wdm.TableConversion
	// PerNodeConversion composes converters per node.
	PerNodeConversion = wdm.PerNodeConversion
	// ConverterFunc adapts a function to the Converter interface.
	ConverterFunc = wdm.ConverterFunc
)

// Solver re-exports (package core).
type (
	// Router is a compiled auxiliary graph answering routing queries.
	Router = core.Aux
	// Result is an optimal semilightpath with cost and statistics.
	Result = core.Result
	// SourceTree holds one-to-all optimal semilightpaths from a source.
	SourceTree = core.SourceTree
	// AllPairsResult is the n×n optimal cost matrix.
	AllPairsResult = core.AllPairsResult
	// Options tunes a query: Directed selects the search strategy; the
	// zero Queue is the served queue policy.
	Options = core.Options
	// BuildStats reports auxiliary graph construction sizes against the
	// paper's Observation bounds.
	BuildStats = core.BuildStats
)

// DistResult is the outcome of a distributed routing run, including the
// message/round statistics of Theorem 3.
type DistResult = dist.Result

// DistStats aggregates distributed execution counters.
type DistStats = dist.Stats

// DirectedMode selects the point-query search strategy (Options.Directed).
type DirectedMode = core.DirectedMode

// Directed modes: the paper's goal-set Dijkstra (the zero value) and A*
// under a lower bound each query reads off the physical network — a
// backward Dijkstra from the destination over the residual links, each
// weighing its cheapest free channel. A* precomputes nothing, refuses a
// physically unreachable destination without searching the auxiliary
// graph, and is what wdmserve runs by default. Both return identical
// costs; see DESIGN.md §14.
const (
	DirectedPlain = core.DirectedPlain
	DirectedAStar = core.DirectedAStar
)

// Common errors surfaced by the API.
var (
	// ErrNoRoute reports that no semilightpath exists between the nodes.
	ErrNoRoute = core.ErrNoRoute
	// ErrNoConverter reports a conversion query on a converter-less network.
	ErrNoConverter = wdm.ErrNoConverter
)

// NewNetwork returns an empty network with n nodes and k wavelengths.
func NewNetwork(n, k int) *Network { return wdm.NewNetwork(n, k) }

// NewTableConversion returns an empty sparse conversion table.
func NewTableConversion() *TableConversion { return wdm.NewTableConversion() }

// NewRouter compiles the auxiliary graph of the paper's Section III for
// nw. Construction costs O(k²n + km) time and space (Observation 3).
func NewRouter(nw *Network) (*Router, error) { return core.NewAux(nw) }

// Find computes an optimal semilightpath from s to t in nw. Theorem 1
// bounds it by O(k²n + km + kn·log(kn)) on a Fibonacci heap; the point
// query runs on a binary heap, whose bound has a log factor on the arc
// term. For repeated queries build a Router once instead.
func Find(nw *Network, s, t int, opts *Options) (*Result, error) {
	return core.FindSemilightpath(nw, s, t, opts)
}

// FindDistributed computes an optimal semilightpath with the distributed
// algorithm of Theorem 3: synchronous rounds, stepped in node order,
// messages only over physical links, O(km) messages and O(kn) rounds.
func FindDistributed(nw *Network, s, t int) (*DistResult, error) {
	return dist.Route(nw, s, t)
}

// AsyncOptions tunes the asynchronous distributed execution model.
type AsyncOptions = dist.AsyncOptions

// FindDistributedAsync runs the distributed algorithm under the
// asynchronous model: the same delivery loop as FindDistributed, with
// seeded random per-message link delays in place of lockstep rounds.
// The result is identical to FindDistributed (relaxation is
// reordering-safe); the statistics — VirtualTime and MaxInFlight among
// them — quantify asynchrony's message overhead.
func FindDistributedAsync(nw *Network, s, t int, opts *AsyncOptions) (*DistResult, DistStats, error) {
	return dist.RouteAsync(nw, s, t, opts)
}

// AllPairsDistributed computes all-pairs optimal costs with all n
// single-source computations running concurrently in one distributed
// execution (Corollary 2).
func AllPairsDistributed(nw *Network) ([][]float64, DistStats, error) {
	return dist.AllPairsPipelined(nw)
}

// CheckRestriction1 verifies the paper's Restriction 1 (conversion is
// total over the wavelengths meeting at each node).
func CheckRestriction1(nw *Network) error { return wdm.CheckRestriction1(nw) }

// CheckRestriction2 verifies the paper's Restriction 2 (conversion is
// always cheaper than any link traversal).
func CheckRestriction2(nw *Network) error { return wdm.CheckRestriction2(nw) }

// SatisfiesRestrictions reports whether both restrictions hold, in which
// case optimal semilightpaths are loop-free (Theorem 2).
func SatisfiesRestrictions(nw *Network) bool { return wdm.SatisfiesRestrictions(nw) }

// MarshalNetwork serializes a network to JSON.
func MarshalNetwork(nw *Network) ([]byte, error) { return wdm.MarshalNetwork(nw) }

// UnmarshalNetwork parses a network from its JSON form.
func UnmarshalNetwork(data []byte) (*Network, error) { return wdm.UnmarshalNetwork(data) }
