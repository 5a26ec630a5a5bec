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
// The distributed variant (Theorem 3) runs each network node as its own
// goroutine exchanging messages only over physical links:
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
// binary). This package re-exports the stable surface.
package lightpath

import (
	"lightpath/internal/core"
	"lightpath/internal/dist"
	"lightpath/internal/graph"
	"lightpath/internal/session"
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
	// Options tunes a query (priority queue and directed-search
	// strategy selection).
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

// QueueKind selects the Dijkstra priority structure.
type QueueKind = graph.QueueKind

// Queue kinds: two the paper's bounds are stated for — the Fibonacci heap
// (Theorem 1, and the zero-Options default) and the linear scan (the
// CFZ-era structure) — and two the engine serves on: the binary heap
// (every search with a goal) and the cyclic bucket array it builds
// SourceTrees on (RouteFrom and AllPairs; a point query under it runs the
// binary heap). All return the same costs.
const (
	QueueFibonacci = graph.QueueFibonacci
	QueueBinary    = graph.QueueBinary
	QueueLinear    = graph.QueueLinear
	QueueBucket    = graph.QueueBucket
)

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

// Online circuit-switching re-exports (package session): a
// SessionManager owns live wavelength occupancy, admits circuits over
// residual capacity and releases them at teardown — the application the
// paper's introduction motivates.
type (
	// SessionManager admits and releases circuits against live occupancy.
	SessionManager = session.Manager
	// Circuit is an admitted connection holding its channels.
	Circuit = session.Circuit
	// SessionID identifies an admitted circuit.
	SessionID = session.ID
	// SessionStats counts admission outcomes.
	SessionStats = session.Stats
	// TrafficConfig parameterizes a dynamic-traffic simulation.
	TrafficConfig = session.TrafficConfig
	// TrafficResult summarizes a dynamic-traffic simulation.
	TrafficResult = session.TrafficResult
	// AdmissionPolicy selects the session admission algorithm.
	AdmissionPolicy = session.Policy
)

// Admission policies: the paper's conversion-aware optimal routing over
// residual capacity, and the classical fixed-routing + first-fit
// wavelength-assignment heuristic.
const (
	PolicyOptimal   = session.PolicyOptimal
	PolicyFirstFit  = session.PolicyFirstFit
	PolicyMostUsed  = session.PolicyMostUsed
	PolicyLeastUsed = session.PolicyLeastUsed
	PolicyRandomFit = session.PolicyRandomFit
)

// Common errors surfaced by the API.
var (
	// ErrNoRoute reports that no semilightpath exists between the nodes.
	ErrNoRoute = core.ErrNoRoute
	// ErrNoConverter reports a conversion query on a converter-less network.
	ErrNoConverter = wdm.ErrNoConverter
	// ErrBlocked reports an admission rejected for lack of capacity.
	ErrBlocked = session.ErrBlocked
)

// NewSessionManager wraps nw for online circuit admission. The manager
// never mutates nw.
func NewSessionManager(nw *Network) (*SessionManager, error) {
	return session.NewManager(nw)
}

// SimulateTraffic runs an Erlang-style dynamic-traffic simulation
// against a fresh manager m: Poisson arrivals at rate cfg.Load, unit
// mean exponential holding times, uniform random node pairs.
func SimulateTraffic(m *SessionManager, cfg TrafficConfig) (*TrafficResult, error) {
	return session.SimulateTraffic(m, cfg)
}

// NewNetwork returns an empty network with n nodes and k wavelengths.
func NewNetwork(n, k int) *Network { return wdm.NewNetwork(n, k) }

// NewTableConversion returns an empty sparse conversion table.
func NewTableConversion() *TableConversion { return wdm.NewTableConversion() }

// NewRouter compiles the auxiliary graph of the paper's Section III for
// nw. Construction costs O(k²n + km) time and space (Observation 3).
func NewRouter(nw *Network) (*Router, error) { return core.NewAux(nw) }

// Find computes an optimal semilightpath from s to t in nw, in
// O(k²n + km + kn·log(kn)) total time (Theorem 1). For repeated queries
// build a Router once instead.
func Find(nw *Network, s, t int, opts *Options) (*Result, error) {
	return core.FindSemilightpath(nw, s, t, opts)
}

// FindDistributed computes an optimal semilightpath with the distributed
// algorithm of Theorem 3: one goroutine per network node, messages only
// over physical links, O(km) messages and O(kn) rounds.
func FindDistributed(nw *Network, s, t int) (*DistResult, error) {
	return dist.Route(nw, s, t)
}

// AsyncOptions tunes the asynchronous distributed execution model.
type AsyncOptions = dist.AsyncOptions

// AsyncStats aggregates an asynchronous distributed run.
type AsyncStats = dist.AsyncStats

// FindDistributedAsync runs the distributed algorithm under the
// asynchronous model: per-message random link delays instead of lockstep
// rounds. The result is identical to FindDistributed (relaxation is
// reordering-safe); the statistics quantify asynchrony's message
// overhead.
func FindDistributedAsync(nw *Network, s, t int, opts *AsyncOptions) (*DistResult, AsyncStats, error) {
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
