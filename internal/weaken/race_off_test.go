//go:build !race

package weaken

// raceEnabled reports a test binary built with Go's race detector,
// which slows the model checker about tenfold.
const raceEnabled = false
