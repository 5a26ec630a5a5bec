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
// baseline, and it shares every code path with normal routing: deleting
// the links is the delta a link failure publishes.)

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
		primaries, err = a.KShortest(s, t, candidates)
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

// backupFor routes a disjoint backup around the given primary on a
// private delta child of this graph: the residual with the primary's
// links stripped of every channel, patched in by ApplyDelta like a link
// failure. Link IDs and gadget nodes are this graph's, so the backup's
// hop list is valid against the original network too; the child is
// dropped with the call.
func (a *Aux) backupFor(s, t int, primary *Result, opts *ProtectOptions) (*Result, error) {
	// A link the primary rides twice is listed twice in changed, which
	// ApplyDelta re-emits twice to the same segments.
	strip := make(map[int][]wdm.Channel, primary.Path.Len())
	changed := make([]int, primary.Path.Len())
	for i, h := range primary.Path.Hops {
		strip[h.Link] = nil
		changed[i] = h.Link
	}
	residual, err := a.nw.PatchChannels(strip)
	if err != nil {
		return nil, err
	}
	child, err := a.ApplyDelta(residual, changed)
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
	return child.Route(s, t, &ro)
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
