//go:build race

package serve

// raceDetector reports a test binary built with -race, under which one
// full campaign on the origin machine takes tens of seconds.
const raceDetector = true
