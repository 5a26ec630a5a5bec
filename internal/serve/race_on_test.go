//go:build race

package serve

// raceEnabled: sync.Pool discards a share of its Puts under the race
// detector, so allocation pins on pooled paths do not hold there.
const raceEnabled = true
