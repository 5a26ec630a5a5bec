// Package lockorder is a golden fixture for the lockorder analyzer:
// the mutex acquisition graph must be acyclic, no mutex is re-locked
// while held, and no locked method is re-entered while the same
// receiver's lock is held. Mutex identity is type-level (Type.field),
// held-ness is object-sensitive.
package lockorder

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

// lockAB and lockBA acquire in opposite orders: every edge site in the
// resulting cycle is reported by the whole-run Finalize pass.
func lockAB(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock() // want `lock-order cycle: .*B\.mu is acquired here \(locks b\.mu directly\) while .*A\.mu is held`
	b.mu.Unlock()
	a.mu.Unlock()
}

func lockBA(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want `lock-order cycle: .*A\.mu is acquired here \(locks a\.mu directly\) while .*B\.mu is held`
	a.mu.Unlock()
	b.mu.Unlock()
}

// grabB's summary carries its acquisition to callers: the edge through
// the helper participates in the same cycle.
func grabB(b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
}

func viaHelper(a *A, b *B) {
	a.mu.Lock()
	grabB(b) // want `lock-order cycle: .*B\.mu is acquired here \(via call to grabB\) while .*A\.mu is held`
	a.mu.Unlock()
}

// deferHeld: a deferred Unlock releases at return, so A.mu stays held
// across the B acquisition below.
func deferHeld(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `lock-order cycle: .*B\.mu is acquired here \(locks b\.mu directly\) while .*A\.mu is held`
	b.mu.Unlock()
}

func doubleLock(a *A) {
	a.mu.Lock()
	a.mu.Lock() // want `a\.mu is locked again while already held \(non-reentrant\)`
	a.mu.Unlock()
}

// branchRelock: held on one incoming path is possibly held (the meet
// is a union), so the unconditional re-lock can self-deadlock.
func branchRelock(a *A, cond bool) {
	if cond {
		a.mu.Lock()
	}
	a.mu.Lock() // want `a\.mu is locked again while already held \(non-reentrant\)`
	a.mu.Unlock()
}

type R struct {
	mu sync.Mutex
	n  int
}

func (r *R) Bump() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
}

// BumpTwice re-enters a locked method while holding the same
// receiver's lock: Go mutexes are not reentrant, so this deadlocks.
func (r *R) BumpTwice() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Bump() // want `call to Bump while r's .*R\.mu is held`
}

type S struct {
	mu sync.RWMutex
	v  int
}

func (s *S) get() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.v
}

// readTwice: recursive RLock deadlocks when a writer is queued between
// the two acquisitions, so re-entry through RLock is a finding too.
func (s *S) readTwice() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.get() // want `call to get while s's .*S\.mu is held`
}

// --- clean code the analyzer must stay silent on ---

// twoObjects holds the same type-level mutex on two distinct objects:
// same-identity edges are never ordering violations.
func twoObjects(x, y *A) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }

// orderCD and orderCDAgain agree on C-before-D: consistent order, no
// cycle, no finding.
func orderCD(c *C, d *D) {
	c.mu.Lock()
	d.mu.Lock()
	d.mu.Unlock()
	c.mu.Unlock()
}

func orderCDAgain(c *C, d *D) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
}

// lockedCallsUnlocked is the SessionManager discipline: the exported
// method locks, the helper it calls does not.
func (r *R) lockedCallsUnlocked() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.plain()
}

func (r *R) plain() { r.n += 2 }
