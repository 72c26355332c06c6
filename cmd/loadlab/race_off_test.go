//go:build !race

package main

// raceEnabled reports that this binary runs under the race detector.
const raceEnabled = false
