// Package leasepair is a golden fixture for the leasepair analyzer:
// engine leases and session circuits acquired in scoped packages must
// be released, stored, or returned — never silently dropped. Handles
// are the owner variable/constant (engine APIs) or the result value
// (Admit-style and mustAlloc-style helpers).
package leasepair

import (
	"lightpath/internal/engine"
	"lightpath/internal/obs"
	"lightpath/internal/session"
)

func leak(e *engine.Engine, owner int64, s, d int) {
	_, _ = e.RouteAndAllocate(owner, s, d) // want `lease acquired here is never released, stored, or returned`
}

func constLeak(e *engine.Engine, s, d int) {
	_, _ = e.RouteAndAllocate(7, s, d) // want `lease \(owner 7\) acquired here is never released, stored, or returned`
}

func loopLeak(e *engine.Engine, n int) {
	for o := int64(1); o <= 4; o++ {
		_, _ = e.RouteAndAllocate(o, 0, 1) // want `lease acquired here is never released, stored, or returned`
	}
}

func spannedLeak(e *engine.Engine, owner int64, s, d int, sp *obs.Span) {
	_, _ = e.RouteAndAllocate(owner, s, d, sp) // want `lease acquired here is never released, stored, or returned`
}

func circuitLeak(m *session.Manager, s, d int) int {
	carried := 0
	c, err := m.Admit(s, d) // want `circuit acquired here is never released, stored, or returned`
	if err == nil && c != nil {
		carried++
	}
	return carried
}

func circuitDropped(m *session.Manager, s, d int) {
	_, _ = m.Admit(s, d) // want `circuit returned here is discarded`
}

func circuitDroppedStmt(m *session.Manager, s, d int) {
	m.Admit(s, d) // want `circuit returned here is discarded`
}

// mustAlloc acquires under the given owner and hands the handle back:
// its summary marks the call site as an acquisition of its own.
func mustAlloc(e *engine.Engine, owner int64) int64 {
	if _, err := e.RouteAndAllocate(owner, 0, 1); err != nil {
		return 0
	}
	return owner
}

func helperLeak(e *engine.Engine) {
	_ = mustAlloc(e, 9) // want `lease returned here is discarded`
}

// --- clean code the analyzer must stay silent on ---

func paired(e *engine.Engine, owner int64, s, d int) error {
	if _, err := e.RouteAndAllocate(owner, s, d); err != nil {
		return err
	}
	return e.Release(owner)
}

func helperKept(e *engine.Engine) {
	owner := mustAlloc(e, 9)
	_ = e.Release(owner)
}

type book struct{ owners []int64 }

// stores records the owner for a later teardown pass: storing
// discharges the obligation.
func stores(e *engine.Engine, b *book, owner int64) {
	if _, err := e.RouteAndAllocate(owner, 0, 2); err == nil {
		b.owners = append(b.owners, owner)
	}
}

// handsBack returns the circuit; the caller owns it now.
func handsBack(m *session.Manager, s, d int) (*session.Circuit, error) {
	return m.Admit(s, d)
}

func releasedCircuit(m *session.Manager, s, d int) error {
	c, err := m.Admit(s, d)
	if err != nil {
		return err
	}
	return m.Release(c.ID)
}
