package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags per-iteration and avoidable allocations inside functions
// reachable from a hot root (sim.Run/RunContext, HTTP handlers,
// //scalvet:hot). It is the mechanical gate that keeps the flat-layout,
// pooled simulator honest: a fresh allocation sneaking onto the hot path
// fails verify.sh instead of waiting for the next bench run to be
// eyeballed.
//
// Flagged in hot-reachable functions:
//
//   - make(slice/map/chan) and slice/map composite literals inside a loop.
//     Whether the compiler would stack-allocate one is not modelled: a
//     constant-sized local buffer is flagged too, and hoisting it costs
//     nothing;
//   - append inside a loop to a slice declared in the same function without
//     a capacity hint;
//   - string ↔ []byte/[]rune conversions inside a loop;
//   - fmt.Sprint/Sprintf/Sprintln anywhere, and any other fmt call inside a
//     loop — except calls that are operands of a return statement (error
//     exits run at most once);
//   - arguments boxed into interface parameters inside a loop.
//
// The analysis is lexical per function: an allocation in a function called
// from a loop is attributed to the callee, which is itself hot-reachable
// and so still checked.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocations, boxing and fmt on hot-reachable paths",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil || !pass.Facts.HotDecl(pass.Pkg, decl) {
				continue
			}
			fn := pass.Pkg.Info.Defs[decl.Name].(*types.Func)
			h := &hotAllocCheck{
				pass:  pass,
				decl:  decl,
				chain: pass.Facts.HotChain(fn),
			}
			h.run()
		}
	}
}

type hotAllocCheck struct {
	pass  *Pass
	decl  *ast.FuncDecl
	chain string
}

func (h *hotAllocCheck) run() {
	inspectWithStack(h.decl.Body, func(n ast.Node, stack []ast.Node) bool {
		inLoop := loopsEnclosing(stack, false) > 0
		switch x := n.(type) {
		case *ast.CallExpr:
			h.call(x, stack, inLoop)
		case *ast.CompositeLit:
			if inLoop {
				h.compositeLit(x, stack)
			}
		}
		return true
	})
}

func (h *hotAllocCheck) call(call *ast.CallExpr, stack []ast.Node, inLoop bool) {
	info := h.pass.Pkg.Info
	// Builtin make.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if inLoop {
					h.makeCall(call)
				}
			case "append":
				if inLoop {
					h.appendCall(call)
				}
			}
			return
		}
	}
	// Conversion string ↔ []byte/[]rune.
	if inLoop && h.isAllocatingConversion(call) {
		h.pass.Reportf(call.Pos(), "conversion to %s allocates every iteration of a hot loop (hot path: %s)",
			types.TypeString(info.TypeOf(call), types.RelativeTo(h.pass.Pkg.Types)), h.chain)
		return
	}
	// fmt use.
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		h.fmtCall(call, fn, stack, inLoop)
		return
	}
	// Interface boxing of arguments inside loops.
	if inLoop {
		h.boxing(call)
	}
}

// makeCall flags make inside a loop.
func (h *hotAllocCheck) makeCall(call *ast.CallExpr) {
	h.pass.Reportf(call.Pos(), "make(%s) allocates every iteration of a hot loop (hot path: %s); hoist it out or reuse a buffer",
		types.TypeString(h.pass.Pkg.Info.TypeOf(call), types.RelativeTo(h.pass.Pkg.Types)), h.chain)
}

// compositeLit flags slice/map literals in loops.
func (h *hotAllocCheck) compositeLit(lit *ast.CompositeLit, stack []ast.Node) {
	// Only the outermost literal of a nested one.
	if len(stack) > 0 {
		if _, ok := stack[len(stack)-1].(*ast.CompositeLit); ok {
			return
		}
	}
	t := h.pass.Pkg.Info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
	default:
		return // struct/array literals are values, not heap allocations per se
	}
	h.pass.Reportf(lit.Pos(), "%s literal allocates every iteration of a hot loop (hot path: %s); hoist it out or reuse a buffer",
		types.TypeString(t, types.RelativeTo(h.pass.Pkg.Types)), h.chain)
}

// appendCall flags append-in-loop when the destination slice is declared in
// this function without a capacity hint.
func (h *hotAllocCheck) appendCall(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	info := h.pass.Pkg.Info
	obj := info.Uses[id]
	if obj == nil {
		return
	}
	declSite, found := h.sliceDeclWithoutCap(obj)
	if !found {
		return
	}
	pos := h.pass.Pkg.Fset.Position(declSite)
	h.pass.Reportf(call.Pos(), "append to %s inside a hot loop regrows it (declared without capacity at line %d; hot path: %s); preallocate with make(…, 0, n)",
		id.Name, pos.Line, h.chain)
}

// sliceDeclWithoutCap finds obj's declaration inside the function and
// reports whether it pins no capacity: `var s []T`, `s := []T{}`, or
// `s := make([]T, 0)`.
func (h *hotAllocCheck) sliceDeclWithoutCap(obj types.Object) (token.Pos, bool) {
	info := h.pass.Pkg.Info
	var pos token.Pos
	found := false
	ast.Inspect(h.decl, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.ValueSpec:
			for _, name := range x.Names {
				if info.Defs[name] == obj && len(x.Values) == 0 {
					if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
						pos, found = name.Pos(), true
					}
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || info.Defs[id] != obj || i >= len(x.Rhs) {
					continue
				}
				if uncappedSliceExpr(info, x.Rhs[i]) {
					pos, found = id.Pos(), true
				}
			}
		}
		return true
	})
	return pos, found
}

// uncappedSliceExpr matches `[]T{}` (empty literal) and `make([]T, 0)`.
func uncappedSliceExpr(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		if _, isSlice := info.TypeOf(x).Underlying().(*types.Slice); isSlice {
			return len(x.Elts) == 0
		}
	case *ast.CallExpr:
		id, ok := ast.Unparen(x.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
			return false
		}
		if _, isSlice := info.TypeOf(x).Underlying().(*types.Slice); !isSlice {
			return false
		}
		if len(x.Args) >= 3 {
			return false // explicit capacity
		}
		if len(x.Args) == 2 {
			tv, ok := info.Types[x.Args[1]]
			return ok && tv.Value != nil && tv.Value.String() == "0"
		}
	}
	return false
}

// isAllocatingConversion matches string↔[]byte/[]rune conversions, each of
// which copies its operand.
func (h *hotAllocCheck) isAllocatingConversion(call *ast.CallExpr) bool {
	info := h.pass.Pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false
	}
	dst := tv.Type.Underlying()
	src := info.TypeOf(call.Args[0])
	if src == nil {
		return false
	}
	srcU := src.Underlying()
	return (isStringType(dst) && isByteOrRuneSlice(srcU)) ||
		(isByteOrRuneSlice(dst) && isStringType(srcU))
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// fmtCall applies the fmt policy: Sprint-family anywhere in a hot function,
// any fmt call inside a loop, but never as a return operand (error exits).
func (h *hotAllocCheck) fmtCall(call *ast.CallExpr, fn *types.Func, stack []ast.Node, inLoop bool) {
	if returnOperand(stack) {
		return
	}
	sprint := false
	switch fn.Name() {
	case "Sprint", "Sprintf", "Sprintln", "Appendf", "Append", "Appendln":
		sprint = true
	}
	if !sprint && !inLoop {
		return
	}
	where := "on the hot path"
	if inLoop {
		where = "in a hot loop"
	}
	h.pass.Reportf(call.Pos(), "fmt.%s %s allocates and reflects over its arguments (hot path: %s); format off the hot path or use strconv",
		fn.Name(), where, h.chain)
}

// returnOperand reports whether the innermost statement the node hangs off
// is a return — the `return nil, fmt.Errorf(…)` error-exit shape.
func returnOperand(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ReturnStmt:
			return true
		case ast.Stmt:
			return false
		}
	}
	return false
}

// boxing flags concrete values converted to interface parameters in loops.
func (h *hotAllocCheck) boxing(call *ast.CallExpr) {
	info := h.pass.Pkg.Info
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return // the fmt rule already covers its variadic any arguments
	}
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if tv, ok := info.Types[arg]; ok && tv.Value != nil {
			continue // constants box into static read-only data, no allocation
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
			continue // pointer-shaped: fits in the interface word, no allocation
		}
		h.pass.Reportf(arg.Pos(), "%s argument is boxed into %s every iteration of a hot loop (hot path: %s)",
			types.TypeString(at, types.RelativeTo(h.pass.Pkg.Types)),
			types.TypeString(pt, types.RelativeTo(h.pass.Pkg.Types)), h.chain)
	}
}
