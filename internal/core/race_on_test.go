//go:build race

package core

// raceEnabled: allocation counts do not hold under the race detector.
const raceEnabled = true
