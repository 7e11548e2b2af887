package analysis

// facts.go — the whole-program layer under scalvet v2. PR 1's analyzers
// inspected one function at a time, which cannot answer the questions the
// ROADMAP's perf campaign asks ("is this allocation on the simulator's hot
// path?", "does this handler propagate its request context?"). Facts builds
// the cross-package substrate once per run:
//
//   - a conservative call graph over every loaded package: an edge for every
//     static call or function-value reference, plus method-set expansion for
//     calls through interfaces (a call to I.M gets an edge to T.M for every
//     module type T implementing I);
//   - hot-path reachability from configurable roots: sim.Run/sim.RunContext,
//     HTTP-handler-shaped functions, and //scalvet:hot annotations;
//   - an atomic-access census (which struct fields are touched through
//     sync/atomic, and where).
//
// Soundness limits (DESIGN §12): function values that travel across function
// boundaries are approximated by treating every *reference* to a declared
// function inside a hot body as an edge; reflection and dynamic dispatch
// through non-interface means are invisible. Nested function literals are
// attributed to their enclosing declaration, so an allocation inside a
// closure of a hot function is a hot allocation.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// hotAnnotation marks a function as a hot-path root when it appears in the
// function's doc comment:
//
//	//scalvet:hot
//	func inner() { ... }
const hotAnnotation = "//scalvet:hot"

// maxChainHops bounds the rendered reachability chain in diagnostics.
const maxChainHops = 6

// Facts is the whole-program knowledge analyzers query through their Pass.
type Facts struct {
	decls map[*types.Func]*declInfo
	calls map[*types.Func]map[*types.Func]bool
	hot   map[*types.Func]hotMark

	// atomicFields maps objects (struct fields or package vars) that are
	// accessed through sync/atomic somewhere in the program to the positions
	// of those atomic accesses.
	atomicFields map[types.Object][]token.Position
}

type declInfo struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// hotMark records how a function became hot: from is the caller that
// propagated hotness (nil for roots), why the root reason.
type hotMark struct {
	from *types.Func
	why  string
}

// buildFacts computes the program facts over the full loaded package set.
func buildFacts(pkgs []*Package) *Facts {
	f := &Facts{
		decls:        map[*types.Func]*declInfo{},
		calls:        map[*types.Func]map[*types.Func]bool{},
		hot:          map[*types.Func]hotMark{},
		atomicFields: map[types.Object][]token.Position{},
	}
	f.indexDecls(pkgs)
	f.buildEdges(pkgs)
	f.markRoots(pkgs)
	f.propagateHot()
	f.censusAtomic(pkgs)
	return f
}

func (f *Facts) indexDecls(pkgs []*Package) {
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				f.decls[fn] = &declInfo{fn: fn, decl: fd, pkg: pkg}
			}
		}
	}
}

// buildEdges adds one edge per referenced function (calls and function
// values alike) and expands interface method calls over the module's method
// sets.
func (f *Facts) buildEdges(pkgs []*Package) {
	named := moduleNamedTypes(pkgs)
	dispatch := map[*types.Func][]*types.Func{} // interface method → implementations

	for _, di := range f.decls {
		edges := f.calls[di.fn]
		if edges == nil {
			edges = map[*types.Func]bool{}
			f.calls[di.fn] = edges
		}
		info := di.pkg.Info
		ast.Inspect(di.decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if callee, ok := info.Uses[x].(*types.Func); ok {
					edges[callee] = true
				}
			case *ast.CallExpr:
				sel, ok := x.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s, ok := info.Selections[sel]
				if !ok || s.Kind() != types.MethodVal {
					return true
				}
				m, ok := s.Obj().(*types.Func)
				if !ok || !types.IsInterface(s.Recv()) {
					return true
				}
				impls, cached := dispatch[m]
				if !cached {
					impls = implementations(m, s.Recv(), named)
					dispatch[m] = impls
				}
				for _, impl := range impls {
					edges[impl] = true
				}
			}
			return true
		})
	}
}

// moduleNamedTypes collects the named non-interface types declared at
// package scope across the module.
func moduleNamedTypes(pkgs []*Package) []*types.Named {
	var out []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(n) {
				continue
			}
			out = append(out, n)
		}
	}
	return out
}

// implementations resolves an interface method call conservatively: every
// module type whose method set satisfies the interface contributes its
// implementation of the method.
func implementations(m *types.Func, recv types.Type, named []*types.Named) []*types.Func {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, n := range named {
		ptr := types.NewPointer(n)
		if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
			continue
		}
		selection := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name())
		if selection == nil {
			continue
		}
		if impl, ok := selection.Obj().(*types.Func); ok {
			out = append(out, impl)
		}
	}
	return out
}

// markRoots seeds the hot set: the simulator entry points, HTTP-handler-
// shaped functions, and //scalvet:hot annotations.
func (f *Facts) markRoots(pkgs []*Package) {
	for _, di := range f.decls {
		switch {
		case isSimEntry(di):
			f.hot[di.fn] = hotMark{why: "sim entry point " + shortFuncName(di.fn)}
		case isHandlerShaped(di.fn):
			f.hot[di.fn] = hotMark{why: "HTTP handler " + shortFuncName(di.fn)}
		case hasHotAnnotation(di.decl):
			f.hot[di.fn] = hotMark{why: shortFuncName(di.fn) + " marked " + hotAnnotation}
		}
	}
}

func isSimEntry(di *declInfo) bool {
	if di.decl.Recv != nil {
		return false
	}
	if di.fn.Name() != "Run" && di.fn.Name() != "RunContext" {
		return false
	}
	p := di.pkg.Path
	return p == "internal/sim" || strings.HasSuffix(p, "/internal/sim")
}

// isHandlerShaped reports the func(http.ResponseWriter, *http.Request)
// signature, the shape net/http dispatches requests to.
func isHandlerShaped(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	if params.Len() != 2 {
		return false
	}
	if !isNetHTTPType(params.At(0).Type(), "ResponseWriter") {
		return false
	}
	ptr, ok := params.At(1).Type().(*types.Pointer)
	return ok && isNetHTTPType(ptr.Elem(), "Request")
}

func isNetHTTPType(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

func hasHotAnnotation(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.HasPrefix(c.Text, hotAnnotation) {
			return true
		}
	}
	return false
}

// propagateHot walks the call graph breadth-first from the roots, recording
// the propagating caller so diagnostics can print the chain. Both the seed
// set and each expansion are sorted: the maps under them iterate in random
// order, and the `from` pointer chosen here is rendered in diagnostics, so
// an unsorted walk would make scalvet's output differ run to run.
func (f *Facts) propagateHot() {
	queue := make([]*types.Func, 0, len(f.hot))
	for fn := range f.hot {
		queue = append(queue, fn)
	}
	sortFuncs(queue)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		callees := make([]*types.Func, 0, len(f.calls[fn]))
		for callee := range f.calls[fn] {
			callees = append(callees, callee)
		}
		sortFuncs(callees)
		for _, callee := range callees {
			if _, seen := f.hot[callee]; seen {
				continue
			}
			if _, hasBody := f.decls[callee]; !hasBody {
				continue // stdlib or bodiless: nothing to analyze behind it
			}
			f.hot[callee] = hotMark{from: fn}
			queue = append(queue, callee)
		}
	}
}

func sortFuncs(fns []*types.Func) {
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
}

// censusAtomic records every object whose address is passed to a sync/atomic
// call, with the position of each such access.
func (f *Facts) censusAtomic(pkgs []*Package) {
	for _, pkg := range pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				addr, ok := call.Args[0].(*ast.UnaryExpr)
				if !ok || addr.Op != token.AND {
					return true
				}
				obj := atomicTarget(info, addr.X)
				if obj == nil {
					return true
				}
				f.atomicFields[obj] = append(f.atomicFields[obj], pkg.Fset.Position(addr.Pos()))
				return true
			})
		}
	}
}

// atomicTarget resolves the object behind an &expr atomic operand: a struct
// field (through any selector path) or a package-level variable.
func atomicTarget(info *types.Info, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[x.Sel].(*types.Var); ok && obj.IsField() {
			return obj
		}
	case *ast.Ident:
		if obj, ok := info.Uses[x].(*types.Var); ok && !obj.IsField() && obj.Parent() == obj.Pkg().Scope() {
			return obj
		}
	case *ast.IndexExpr:
		return atomicTarget(info, x.X)
	}
	return nil
}

// calleeFunc resolves a call's static callee, nil when dynamic.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// IsHot reports whether fn is reachable from a hot root.
func (f *Facts) IsHot(fn *types.Func) bool {
	_, ok := f.hot[fn]
	return ok
}

// HotDecl reports whether a declaration is hot, resolving it through the
// package's type info.
func (f *Facts) HotDecl(pkg *Package, decl *ast.FuncDecl) bool {
	fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
	return ok && f.IsHot(fn)
}

// HotChain renders the reachability evidence for a hot function:
// "sim entry point sim.RunContext → sim.(*engine).runRegion → …".
func (f *Facts) HotChain(fn *types.Func) string {
	if _, ok := f.hot[fn]; !ok {
		return ""
	}
	var hops []string
	for cur := fn; ; {
		hops = append(hops, shortFuncName(cur))
		m := f.hot[cur]
		if m.from == nil {
			// Root: lead with its reason instead of repeating the name.
			hops[len(hops)-1] = m.why
			break
		}
		cur = m.from
	}
	// hops is callee-first; reverse into root-first order.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	if len(hops) > maxChainHops {
		head := hops[:maxChainHops-1]
		hops = append(append([]string{}, head...), "…", hops[len(hops)-1])
	}
	return strings.Join(hops, " → ")
}

// AtomicUses returns where obj is accessed through sync/atomic (nil when it
// never is).
func (f *Facts) AtomicUses(obj types.Object) []token.Position {
	return f.atomicFields[obj]
}

// shortFuncName renders sim.RunContext or serve.(*Server).handleAnalyze.
func shortFuncName(fn *types.Func) string {
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = path.Base(fn.Pkg().Path()) + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		return pkgName + "(" + typeShort(sig.Recv().Type()) + ")." + fn.Name()
	}
	return pkgName + fn.Name()
}

func typeShort(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		return "*" + typeShort(ptr.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
