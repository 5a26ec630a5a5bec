//go:build !race

package lightpath

const raceEnabled = false
