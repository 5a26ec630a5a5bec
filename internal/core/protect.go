package core

import (
	"errors"
	"fmt"

	"lightpath/internal/wdm"
)

// This file implements 1+1 protection provisioning: a primary optimal
// semilightpath plus a link-disjoint backup, so a single fiber cut
// cannot take down both. The backup is computed by the classical
// two-step heuristic — route the primary optimally, delete its links,
// route again. (Suurballe-style joint optimization over the layered
// auxiliary graph is possible but the two-step is the standard practice
// baseline, and it shares every code path with normal routing.)

// ErrNoBackup is returned when a primary exists but no link-disjoint
// backup does.
var ErrNoBackup = errors.New("core: no link-disjoint backup path")

// ProtectedPair is a primary semilightpath with a disjoint backup.
type ProtectedPair struct {
	Primary *Result
	Backup  *Result
}

// TotalCost is the combined provisioning cost of both paths.
func (p *ProtectedPair) TotalCost() float64 { return p.Primary.Cost + p.Backup.Cost }

// ProtectOptions tunes protected provisioning.
type ProtectOptions struct {
	// Route tunes the underlying shortest-path queries.
	Route *Options
	// NodeDisjoint additionally forbids the backup from visiting the
	// primary's intermediate nodes (stronger than link-disjointness:
	// survives office failures, not just fiber cuts).
	NodeDisjoint bool
	// PrimaryCandidates > 1 enables the anti-trap retry: if the optimal
	// primary admits no disjoint backup, the next-best primaries (via
	// K-shortest) are tried in cost order before giving up. The classic
	// "trap topology" makes the plain two-step fail even though a
	// disjoint pair exists; retrying over alternates escapes most traps
	// (joint optimization is NP-hard for fiber-disjoint semilightpaths,
	// which are SRLG-disjoint paths in the layered graph).
	PrimaryCandidates int
}

func (o *ProtectOptions) route() *Options {
	if o == nil {
		return nil
	}
	return o.Route
}

func (o *ProtectOptions) candidates() int {
	if o == nil || o.PrimaryCandidates < 1 {
		return 1
	}
	return o.PrimaryCandidates
}

func (o *ProtectOptions) nodeDisjoint() bool { return o != nil && o.NodeDisjoint }

// RouteProtected finds a primary optimal semilightpath s→t and a backup
// that shares no physical link with it — the 1+1 protection pair — using
// the two-step remove-and-reroute heuristic, optionally hardened per
// ProtectOptions. The pair minimizes the primary's cost, then the
// backup's; it is not jointly optimal (see ProtectOptions.PrimaryCandidates).
func (a *Aux) RouteProtected(s, t int, opts *ProtectOptions) (*ProtectedPair, error) {
	candidates := opts.candidates()
	var primaries []*Result
	if candidates == 1 {
		primary, err := a.Route(s, t, opts.route())
		if err != nil {
			return nil, err
		}
		primaries = []*Result{primary}
	} else {
		var err error
		primaries, err = a.KShortest(s, t, candidates, opts.route())
		if err != nil {
			return nil, err
		}
	}
	if primaries[0].Path.Len() == 0 {
		return &ProtectedPair{Primary: primaries[0], Backup: primaries[0]}, nil
	}

	for _, primary := range primaries {
		backup, err := a.backupFor(s, t, primary, opts)
		if errors.Is(err, ErrNoRoute) {
			continue // trapped with this primary; try the next
		}
		if err != nil {
			return nil, err
		}
		return &ProtectedPair{Primary: primary, Backup: backup}, nil
	}
	return nil, fmt.Errorf("%w: from %d to %d (tried %d primaries)", ErrNoBackup, s, t, len(primaries))
}

// backupFor routes a disjoint backup around the given primary.
func (a *Aux) backupFor(s, t int, primary *Result, opts *ProtectOptions) (*Result, error) {
	exclude := make(map[int]bool, primary.Path.Len())
	for _, h := range primary.Path.Hops {
		exclude[h.Link] = true
	}
	if opts.nodeDisjoint() {
		// Forbid every link touching an intermediate node of the primary.
		nodes := primary.Path.Nodes(a.nw)
		for _, v := range nodes[1 : len(nodes)-1] {
			for _, id := range a.nw.Out(v) {
				exclude[int(id)] = true
			}
			for _, id := range a.nw.In(v) {
				exclude[int(id)] = true
			}
		}
	}
	residual, err := networkWithoutLinks(a.nw, exclude)
	if err != nil {
		return nil, err
	}
	residualAux, err := NewAux(residual)
	if err != nil {
		return nil, err
	}
	// Lent bound rows describe a.nw; a row built on the stripped network
	// would overestimate there, so the backup query runs its own pass.
	var ro Options
	if r := opts.route(); r != nil {
		ro = *r
		ro.Bound = nil
	}
	// Link IDs are preserved by networkWithoutLinks, so the backup's hop
	// list is valid against the original network too.
	return residualAux.Route(s, t, &ro)
}

// networkWithoutLinks clones nw with the excluded links stripped of all
// channels (the links remain so IDs stay aligned).
func networkWithoutLinks(nw *wdm.Network, exclude map[int]bool) (*wdm.Network, error) {
	out := wdm.NewNetwork(nw.NumNodes(), nw.K())
	for _, l := range nw.Links() {
		channels := l.Channels
		if exclude[l.ID] {
			channels = nil
		}
		if _, err := out.AddLink(l.From, l.To, channels); err != nil {
			return nil, fmt.Errorf("core: strip link %d: %w", l.ID, err)
		}
	}
	out.SetConverter(nw.Converter())
	return out, nil
}

// LinkDisjoint reports whether two semilightpaths share any physical
// link.
func LinkDisjoint(a, b *wdm.Semilightpath) bool {
	used := make(map[int]bool, len(a.Hops))
	for _, h := range a.Hops {
		used[h.Link] = true
	}
	for _, h := range b.Hops {
		if used[h.Link] {
			return false
		}
	}
	return true
}
