//go:build !race

package mom

// raceEnabled reports a build instrumented by the race detector.
const raceEnabled = false
