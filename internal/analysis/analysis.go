// Package analysis implements scalvet, the repo-specific static-analysis
// pass for the Scal-Tool model core. It is built only on the standard
// library (go/ast, go/parser, go/token, go/types): the module stays
// dependency-free.
//
// Scal-Tool's value is a trustworthy decomposition of cycles into
// Base/L2Lim/Sync/Imb. A single silent float bug, counter overflow, or
// data race in the campaign/sim worker pools corrupts every downstream
// figure, so this package machine-checks the invariants the code
// previously only asserted via scattered panics:
//
//   - floatcmp:     ==/!= between floating-point expressions
//   - counterconv:  lossy uint64→float64/int conversions of counter fields
//   - sharedmut:    goroutine literals writing shared state unguarded
//   - panicmsg:     the "pkg: message" panic/assert message convention
//   - exhauststate: non-exhaustive switches over coherence/placement enums
//   - ctxgo:        campaign/sim goroutines launched without a context
//   - spanend:      StartSpan spans with no deferred or per-return-path End
//   - closecheck:   discarded (*os.File).Close/Sync errors on write paths
//
// scalvet v2 adds a whole-program layer (facts.go): a conservative
// cross-package call graph, hot-path reachability from sim.Run/RunContext,
// HTTP-handler-shaped functions and //scalvet:hot annotations. On top of
// it:
//
//   - hotalloc:     allocations, append-without-preallocation, boxing and
//     fmt use inside hot-reachable functions
//   - deferloop:    defer or span-start inside loops of hot functions
//   - atomicmix:    fields accessed both via sync/atomic and plainly
//   - ctxhttp:      serve handlers spawning work without r.Context()
//
// Checks that go vet (run beside scalvet in verify.sh) or the language
// already covers are left to them: vet's copylocks pass catches sync types
// copied by value, and go1.22's per-iteration loop variables remove the
// goroutine loop-capture bug.
//
// Pre-existing findings are tracked, not silenced, by the committed
// baseline (baseline.go, scalvet.baseline.json) keyed by
// analyzer+file+symbol so line churn does not invalidate entries.
//
// A diagnostic on a given line is suppressed by a trailing
// "//scalvet:ignore reason" comment on the same line or by one on its own
// line immediately above. The reason is mandatory: a bare ignore is itself
// reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at file:line:col. Symbol names the
// enclosing top-level declaration — the stable half of the baseline key, so
// unrelated line churn in a file does not invalidate tracked debt.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Symbol   string `json:"symbol,omitempty"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path ("scaltool/internal/sim")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one scalvet check.
type Analyzer struct {
	Name string
	Doc  string
	// PathSuffixes, when non-empty, restricts the analyzer to packages
	// whose import path ends in one of the suffixes.
	PathSuffixes []string
	Run          func(*Pass)
}

func (a *Analyzer) appliesTo(pkgPath string) bool {
	if len(a.PathSuffixes) == 0 {
		return true
	}
	for _, suf := range a.PathSuffixes {
		if pkgPath == suf || strings.HasSuffix(pkgPath, "/"+suf) {
			return true
		}
	}
	return false
}

// All returns the full analyzer set in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp, CounterConv, SharedMut, PanicMsg, ExhaustState,
		CtxGo, SpanEnd, CloseCheck,
		HotAlloc, DeferLoop, AtomicMix, CtxHTTP,
	}
}

// Pass carries one analyzer's run over one package. Facts exposes the
// whole-program layer (call graph, hot-path reachability, atomic census)
// computed once over every loaded package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Facts    *Facts
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos, attributing it to the enclosing
// top-level declaration.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Symbol:   p.symbolAt(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// symbolAt names the top-level declaration covering pos: "F", "T.M" for
// methods (pointer receivers included, without the star), or the first
// declared name of a var/const/type block.
func (p *Pass) symbolAt(pos token.Pos) string {
	for _, f := range p.Pkg.Files {
		if pos < f.FileStart || pos > f.FileEnd {
			continue
		}
		for _, d := range f.Decls {
			if pos < d.Pos() || pos > d.End() {
				continue
			}
			switch dd := d.(type) {
			case *ast.FuncDecl:
				return funcDeclSymbol(dd)
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						if len(sp.Names) > 0 {
							return sp.Names[0].Name
						}
					case *ast.TypeSpec:
						return sp.Name.Name
					}
				}
			}
		}
		return ""
	}
	return ""
}

// funcDeclSymbol renders a declaration's baseline symbol: "F" or "T.M".
func funcDeclSymbol(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = x.X
		case *ast.Ident:
			return x.Name + "." + d.Name.Name
		default:
			return d.Name.Name
		}
	}
}

// TypeOf returns the type of an expression (nil if untypeable).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Inspect walks every file of the package.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

// Run applies the analyzers (respecting their package filters) to the
// module set's requested packages, drops //scalvet:ignore'd findings, and
// returns the remainder sorted by position. Program facts (call graph, hot
// reachability, atomic census) are computed over every loaded package —
// imports included — so reachability does not stop at the pattern boundary.
func Run(ms *ModuleSet, analyzers []*Analyzer) []Diagnostic {
	facts := buildFacts(ms.All)
	var all []Diagnostic
	for _, pkg := range ms.Requested {
		all = append(all, runPackage(pkg, facts, analyzers, true)...)
	}
	sortDiags(all)
	return all
}

// RunUnfiltered runs the analyzers over one package ignoring their package
// filters (fixture tests use it); //scalvet:ignore suppression still
// applies, and facts are computed from the package alone.
func RunUnfiltered(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	diags := runPackage(pkg, buildFacts([]*Package{pkg}), analyzers, false)
	sortDiags(diags)
	return diags
}

func runPackage(pkg *Package, facts *Facts, analyzers []*Analyzer, applyPathFilter bool) []Diagnostic {
	ig := collectIgnores(pkg)
	out := append([]Diagnostic(nil), ig.malformed...)
	for _, a := range analyzers {
		if applyPathFilter && !a.appliesTo(pkg.Path) {
			continue
		}
		pass := &Pass{Analyzer: a, Pkg: pkg, Facts: facts}
		a.Run(pass)
		for _, d := range pass.diags {
			if ig.suppressed(d.File, d.Line) {
				continue
			}
			out = append(out, d)
		}
	}
	return out
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
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
