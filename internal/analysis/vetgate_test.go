package analysis

import (
	"os/exec"
	"strings"
	"testing"
)

// TestVetGateFires proves the `go vet` half of the CI gate works: the
// deliberately broken fixture in testdata/vetbad must make vet exit
// non-zero with a printf diagnostic and a copylocks one. The main tree
// stays vet-clean, so without this fixture a silently broken vet
// invocation would look identical to a passing one. The copylocks half is
// the check scalvet leaves to vet: sync types copied by value.
func TestVetGateFires(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go binary not in PATH")
	}
	cmd := exec.Command(goBin, "vet", "./testdata/vetbad")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed on the broken fixture; gate is not detecting anything\n%s", out)
	}
	if !strings.Contains(string(out), "%d") || !strings.Contains(string(out), "vetbad.go") {
		t.Errorf("vet failed but without the expected printf diagnostic:\n%s", out)
	}
	if !strings.Contains(string(out), "passes lock by value") {
		t.Errorf("vet failed but without the expected copylocks diagnostic:\n%s", out)
	}
}
