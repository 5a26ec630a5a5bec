// Package errdrop is a golden fixture for the errdrop analyzer:
// error results of engine/facade/core public APIs must be handled.
package errdrop

import (
	"lightpath"
	"lightpath/internal/engine"
)

func drops(e *engine.Engine, m *lightpath.SessionManager) {
	e.Release(1)                          // want `error result of Engine\.Release is discarded`
	_ = e.RepairLink(2)                   // want `error result of Engine\.RepairLink is assigned to _`
	go e.Release(3)                       // want `error result of Engine\.Release is discarded`
	defer e.Release(4)                    // want `error result of Engine\.Release is discarded`
	res, _ := e.RouteAndAllocate(5, 0, 1) // want `error result of Engine\.RouteAndAllocate is assigned to _`
	_ = res
	m.Admit(0, 1) // want `error result of SessionManager\.Admit is discarded`
}

func handled(e *engine.Engine, m *lightpath.SessionManager) error {
	if err := e.Release(1); err != nil {
		return err
	}
	c, err := m.Admit(0, 1)
	if err != nil {
		return err
	}
	return m.Release(c.ID)
}
