//go:build !race

package serve

// raceDetector reports a test binary built with -race.
const raceDetector = false
