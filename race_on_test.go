//go:build race

package lightpath

// raceEnabled: allocation counts do not hold under the race detector.
const raceEnabled = true
