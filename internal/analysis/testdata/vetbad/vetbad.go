// Package vetbad is a deliberately vet-dirty fixture. The repo's own tree
// is vet-clean (verify.sh runs `go vet ./...`, which skips testdata), so
// this file exists to prove the gate actually fires: vetgate_test.go runs
// `go vet` on this package and requires it to FAIL. If vet ever stops
// flagging it, the gate is broken and the test says so.
package vetbad

import (
	"fmt"
	"sync"
)

// Describe formats an event count with a wrong printf verb: %d applied to
// a string. This is exactly the class of bug `go vet` exists to catch.
func Describe(name string) string {
	return fmt.Sprintf("event %d", name)
}

// counter guards n with a mutex, so it must never be copied.
type counter struct {
	mu sync.Mutex
	n  int
}

// Read takes the counter by value, copying its mutex. This is the class of
// bug vet's copylocks pass exists to catch.
func Read(c counter) int {
	return c.n
}
