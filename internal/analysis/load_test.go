package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTestModule(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadModuleCycleError proves the loader rejects an import cycle with
// an error instead of recursing forever.
func TestLoadModuleCycleError(t *testing.T) {
	dir := t.TempDir()
	writeTestModule(t, dir, map[string]string{
		"go.mod":    "module cyclemod\n\ngo 1.22\n",
		"a/a.go":    "package a\n\nimport \"cyclemod/b\"\n\nvar X = b.Y\n",
		"b/b.go":    "package b\n\nimport \"cyclemod/a\"\n\nvar Y = 1\n\nvar Z = a.X\n",
		"ok/ok.go":  "package ok\n",
		"ok2/o2.go": "package ok2\n",
	})
	_, err := LoadModule(dir, []string{"./..."})
	if err == nil {
		t.Fatal("import cycle must fail the load")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error should name the cycle, got: %v", err)
	}
}
