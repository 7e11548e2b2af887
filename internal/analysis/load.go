package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ModuleSet is the result of loading a module: the packages that matched
// the requested patterns (what analyzers report on) and every module-local
// package that got loaded to satisfy them (what program facts — the call
// graph, hot reachability — are computed over, so reachability does not
// stop at the pattern boundary).
type ModuleSet struct {
	Requested []*Package
	All       []*Package
}

// LoadModule loads and type-checks the packages of the module rooted at
// root that match patterns ("./...", "dir/...", or plain directories,
// interpreted relative to root). It uses only the standard library:
// module-local imports resolve from the module tree itself and
// standard-library imports from GOROOT source via go/importer. Test files
// are not loaded. An import cycle is an error.
func LoadModule(root string, patterns []string) (*ModuleSet, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		return nil, err
	}
	ld := newLoader(root, modPath)
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := ld.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	sortPackages(pkgs)
	all := make([]*Package, 0, len(ld.pkgs))
	for _, p := range ld.pkgs {
		if p != nil {
			all = append(all, p)
		}
	}
	sortPackages(all)
	return &ModuleSet{Requested: pkgs, All: all}, nil
}

// LoadDir loads a single directory as a standalone package whose imports
// must all be from the standard library — the fixture loader for analyzer
// tests.
func LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	p, err := newLoader(dir, "").loadDir(dir)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return p, nil
}

func sortPackages(pkgs []*Package) {
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w (scalvet must run inside the module)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// expandPatterns resolves package patterns to candidate directories.
func expandPatterns(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	walk := func(base string) error {
		return filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		switch {
		case pat == "..." || pat == "":
			if err := walk(root); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			if err := walk(filepath.Join(root, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))); err != nil {
				return nil, err
			}
		default:
			add(filepath.Join(root, filepath.FromSlash(pat)))
		}
	}
	return out, nil
}

// loader type-checks module packages, memoized by directory. It is the
// types.Importer for module-local paths and delegates everything else to
// the standard library's source importer.
type loader struct {
	root    string
	modPath string
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by absolute dir; nil = no Go files
	loading map[string]bool
}

func newLoader(root, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root:    root,
		modPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// Import implements types.Importer over the loader's module.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir, ok := moduleLocalDir(ld.root, ld.modPath, path); ok {
		p, err := ld.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("analysis: no Go files for import %q", path)
		}
		return p.Types, nil
	}
	return ld.std.Import(path)
}

// moduleLocalDir maps an import path inside the module to its directory.
func moduleLocalDir(root, modPath, path string) (string, bool) {
	if modPath == "" || (path != modPath && !strings.HasPrefix(path, modPath+"/")) {
		return "", false
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, modPath), "/")
	return filepath.Join(root, filepath.FromSlash(rel)), true
}

func importPathFor(root, modPath, dir string) string {
	if modPath == "" {
		return filepath.Base(dir)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

// parseDir parses the non-test Go files of one directory into fset.
// A directory with no Go files yields (nil, nil).
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// loadDir parses and type-checks one directory. It returns (nil, nil) when
// the directory holds no non-test Go files.
func (ld *loader) loadDir(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	if p, ok := ld.pkgs[dir]; ok {
		return p, nil
	}
	if ld.loading[dir] {
		return nil, fmt.Errorf("analysis: import cycle through %s", dir)
	}
	ld.loading[dir] = true
	defer delete(ld.loading, dir)

	files, err := parseDir(ld.fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		ld.pkgs[dir] = nil
		return nil, nil
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: ld}
	importPath := importPathFor(ld.root, ld.modPath, dir)
	tpkg, err := conf.Check(importPath, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	p := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  ld.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	ld.pkgs[dir] = p
	return p, nil
}
