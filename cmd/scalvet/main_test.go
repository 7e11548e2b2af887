package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module and chdirs into it; the test
// restores the working directory on cleanup.
func writeModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

const badSrc = `package model

func Equal(a, b float64) bool {
	return a == b
}
`

const goodSrc = `package model

func Equal(a, b float64) bool {
	return a > b || b > a
}
`

func TestRunFindsAndFixes(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod":                "module throwaway\n\ngo 1.22\n",
		"internal/model/bad.go": badSrc,
	})

	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 1 {
		t.Fatalf("run on violating module = %d, want 1 (stderr: %s)", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "bad.go:4:") || !strings.Contains(got, "floatcmp") {
		t.Fatalf("diagnostic missing file:line or analyzer name:\n%s", got)
	}

	if err := os.WriteFile(filepath.Join("internal", "model", "bad.go"), []byte(goodSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("run on fixed module = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}

func TestRunJSON(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod":                "module throwaway\n\ngo 1.22\n",
		"internal/model/bad.go": badSrc,
	})

	var out, errb bytes.Buffer
	if code := run([]string{"-json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("run -json = %d, want 1 (stderr: %s)", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{`"analyzer": "floatcmp"`, `"line": 4`} {
		if !strings.Contains(got, want) {
			t.Errorf("JSON output missing %s:\n%s", want, got)
		}
	}
}

func TestRunEnableFilter(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod":                "module throwaway\n\ngo 1.22\n",
		"internal/model/bad.go": badSrc,
	})

	var out, errb bytes.Buffer
	// Only panicmsg enabled: the float comparison must not be reported.
	if code := run([]string{"-enable", "panicmsg", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("run -enable panicmsg = %d, want 0\nstdout: %s", code, out.String())
	}

	if code := run([]string{"-enable", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("run -enable nosuch = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr missing unknown-analyzer error: %s", errb.String())
	}
}

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run -list = %d, want 0", code)
	}
	names := []string{
		"floatcmp", "counterconv", "sharedmut", "panicmsg", "exhauststate",
		"ctxgo", "spanend", "closecheck",
		"hotalloc", "deferloop", "atomicmix", "ctxhttp",
	}
	for _, name := range names {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s", name)
		}
	}
	if got := strings.Count(out.String(), "\n"); got != len(names) {
		t.Errorf("-list printed %d analyzers, want %d:\n%s", got, len(names), out.String())
	}
}
