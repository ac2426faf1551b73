//go:build !race

package vm_test

// raceEnabled reports a build under the Go race detector, which slows
// the state-space tests tenfold.
const raceEnabled = false
