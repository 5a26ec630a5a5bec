package session

import (
	"errors"
	"fmt"
	"time"

	"lightpath/internal/core"
)

// AdmitProtected admits a 1+1 protected circuit: a primary optimal
// semilightpath plus a link-disjoint backup, both routed over the
// current residual capacity and both claiming their channels until
// Release. The returned primary circuit's Release tears down the backup
// too.
//
// Protection admission blocks when either path cannot be provisioned;
// nothing is claimed on failure (all-or-nothing).
func (m *Manager) AdmitProtected(s, t int) (primary, backup *Circuit, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	defer func() { m.tele.admitLatency.ObserveDuration(time.Since(start)) }()
	pair, err := m.eng.RouteProtected(s, t, &core.ProtectOptions{
		PrimaryCandidates: 4, // modest anti-trap effort per admission
	})
	if errors.Is(err, core.ErrNoRoute) || errors.Is(err, core.ErrNoBackup) {
		m.noteBlocked()
		return nil, nil, fmt.Errorf("%w: %d->%d (protected)", ErrBlocked, s, t)
	}
	if err != nil {
		return nil, nil, err
	}
	primary = m.claim(s, t, pair.Primary.Path, pair.Primary.Cost)
	backup = m.claim(s, t, pair.Backup.Path, pair.Backup.Cost)
	// Pairing: releasing the primary cascades to the backup.
	if m.pairedBackup == nil {
		m.pairedBackup = make(map[ID]ID)
	}
	m.pairedBackup[primary.ID] = backup.ID
	return primary, backup, nil
}

// releasePaired drops the paired backup of id, if one exists. Called by
// Release before the primary itself is torn down.
func (m *Manager) releasePaired(id ID) {
	if m.pairedBackup == nil {
		return
	}
	backupID, ok := m.pairedBackup[id]
	if !ok {
		return
	}
	delete(m.pairedBackup, id)
	if _, active := m.active[backupID]; active {
		if err := m.eng.Release(int64(backupID)); err != nil {
			panic(fmt.Sprintf("session: cascade release of backup %d failed: %v", backupID, err))
		}
		delete(m.active, backupID)
		m.noteReleased()
	}
}
