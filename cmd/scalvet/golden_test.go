package main

import (
	"bytes"
	"testing"
)

// Two findings in two files, written in reverse-alphabetical order on
// disk: the golden output proves -json is sorted by file/line/col/analyzer
// and byte-stable across runs.
const goldenA = `package model

func Close(a, b float64) bool {
	if a == b {
		return true
	}
	return a != b
}
`

const goldenB = `package model

func Same(x, y float64) bool {
	return x == y
}
`

const goldenWant = `[
  {
    "analyzer": "floatcmp",
    "file": "internal/model/a.go",
    "line": 4,
    "col": 7,
    "symbol": "Close",
    "message": "exact floating-point == comparison; use a tolerance or restructure the test"
  },
  {
    "analyzer": "floatcmp",
    "file": "internal/model/a.go",
    "line": 7,
    "col": 11,
    "symbol": "Close",
    "message": "exact floating-point != comparison; use a tolerance or restructure the test"
  },
  {
    "analyzer": "floatcmp",
    "file": "internal/model/b.go",
    "line": 4,
    "col": 11,
    "symbol": "Same",
    "message": "exact floating-point == comparison; use a tolerance or restructure the test"
  }
]
`

func TestJSONGolden(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod":              "module throwaway\n\ngo 1.22\n",
		"internal/model/b.go": goldenB,
		"internal/model/a.go": goldenA,
	})

	for round := 0; round < 2; round++ {
		var out, errb bytes.Buffer
		if code := run([]string{"-json", "./..."}, &out, &errb); code != 1 {
			t.Fatalf("round %d: run -json = %d, want 1 (stderr: %s)", round, code, errb.String())
		}
		if got := out.String(); got != goldenWant {
			t.Fatalf("round %d: -json output is not the golden form:\n--- got ---\n%s--- want ---\n%s", round, got, goldenWant)
		}
	}
}
