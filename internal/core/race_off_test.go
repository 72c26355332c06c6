//go:build !race

package core

// raceEnabled skips the slowest bit pins under the race detector, which
// slows training several-fold and changes no bit of what they pin.
const raceEnabled = false
