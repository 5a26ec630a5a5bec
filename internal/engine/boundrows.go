package engine

// boundRows is one snapshot's view of the engine's bound-row cache: the
// core.BoundRows its astar queries are lent. It lives inside the Snapshot
// by value (Snapshot.ropts.Bound points at it), so publishing an epoch
// allocates nothing for it.
type boundRows struct {
	eng   *Engine
	epoch uint64
}

// Row returns destination t's row at this epoch if resident. On a miss,
// build is true from the second ask of (t, epoch) on (askedAt).
func (r *boundRows) Row(t int) (row []float32, build bool) {
	e := r.eng
	if row, ok := e.rows.get(epochKey{node: t, epoch: r.epoch}); ok {
		return row, false
	}
	return nil, e.rowAsked.second(t, r.epoch)
}

// Store keeps a complete row for destination t at this epoch.
func (r *boundRows) Store(t int, row []float32) {
	r.eng.rows.put(epochKey{node: t, epoch: r.epoch}, row)
	r.eng.metrics.boundRowBuilds.Inc()
}
