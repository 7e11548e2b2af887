// Command scalvet is the repo-specific static-analysis gate for the
// Scal-Tool model core. It loads every package of the module (standard
// library only: go/ast + go/types with a source importer; no external
// dependencies) and reports file:line diagnostics from the analyzers in
// internal/analysis, exiting non-zero on findings.
//
// Usage:
//
//	scalvet [-enable hotalloc,floatcmp,...] [-json] [-baseline write|check] [packages]
//
// Packages default to ./... and are interpreted relative to the module
// root (found by walking up from the working directory). Suppress a
// diagnostic with a trailing "//scalvet:ignore reason" comment; the
// reason is mandatory. Track pre-existing debt instead of suppressing it:
// "-baseline write" records current findings in scalvet.baseline.json
// (keyed by analyzer+file+symbol, so line churn does not invalidate it),
// and "-baseline check" fails only on findings beyond the recorded ones.
//
// Exit codes: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"scaltool/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scalvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array, sorted by file/line/col/analyzer")
	list := fs.Bool("list", false, "list the analyzers and exit")
	baselineMode := fs.String("baseline", "", `baseline mode: "write" records current findings in the baseline file; "check" suppresses baselined findings and fails on new ones`)
	baselineFile := fs.String("baseline-file", "scalvet.baseline.json", "baseline path, relative to the module root")
	fs.Usage = func() {
		fmt.Fprintf(stderr, `usage: scalvet [flags] [packages]

scalvet is the repo's static-analysis gate. Packages default to ./...,
relative to the module root. Suppress one finding with a trailing
"//scalvet:ignore reason" comment (the reason is mandatory); track
pre-existing debt with -baseline write / -baseline check.

Exit codes:
  0  clean: no findings (after //scalvet:ignore and baseline filtering)
  1  findings were reported
  2  usage error, or the module failed to load or type-check

Flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -help prints the contract above, it is not an error
		}
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *baselineMode {
	case "", "write", "check":
	default:
		fmt.Fprintf(stderr, "scalvet: -baseline must be \"write\" or \"check\", got %q\n", *baselineMode)
		return 2
	}
	analyzers, err := selectAnalyzers(*enable)
	if err != nil {
		fmt.Fprintln(stderr, "scalvet:", err)
		return 2
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "scalvet:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	ms, err := analysis.LoadModule(root, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "scalvet:", err)
		return 2
	}

	diags := analysis.Run(ms, analyzers)
	bpath := *baselineFile
	if !filepath.IsAbs(bpath) {
		bpath = filepath.Join(root, bpath)
	}
	switch *baselineMode {
	case "write":
		if err := analysis.NewBaseline(root, diags).WriteFile(bpath); err != nil {
			fmt.Fprintln(stderr, "scalvet:", err)
			return 2
		}
		fmt.Fprintf(stderr, "scalvet: wrote %d finding(s) to %s\n", len(diags), bpath)
		return 0
	case "check":
		base, err := analysis.LoadBaseline(bpath)
		if err != nil {
			fmt.Fprintln(stderr, "scalvet:", err)
			return 2
		}
		var stale []analysis.BaselineEntry
		diags, stale = base.Apply(root, diags)
		for _, e := range stale {
			fmt.Fprintf(stderr, "scalvet: stale baseline entry: %s %s %s (%d unmatched); prune with -baseline write\n",
				e.Analyzer, e.File, e.Symbol, e.Count)
		}
	}

	relativize(diags)
	sortRelativized(diags)
	if *jsonOut {
		if diags == nil {
			diags = []analysis.Diagnostic{} // encode a clean tree as [], not null
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "scalvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "scalvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -enable list against the registry.
func selectAnalyzers(enable string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if enable == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(enable, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (see scalvet -list)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-enable %q selects no analyzers", enable)
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// relativize rewrites absolute file positions relative to the working
// directory for readable, clickable output.
func relativize(diags []analysis.Diagnostic) {
	cwd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}
}

// sortRelativized restores the file/line/col/analyzer order after
// relativize rewrote the file names — the output contract (and the -json
// golden test) promise deterministic, sorted diagnostics regardless of the
// working directory.
func sortRelativized(diags []analysis.Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}
