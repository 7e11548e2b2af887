package analysis

import (
	"go/ast"
	"go/types"
)

// CtxGo flags goroutine launches in the campaign and sim worker pools that
// no context.Context reaches. The fault-tolerance layer relies on a
// canceled context stopping every in-flight worker promptly (a critical-run
// failure cancels the pool; a slow run is stopped by its per-run
// deadline); a goroutine spawned without a context is invisible to that
// machinery and outlives the campaign it belongs to.
var CtxGo = &Analyzer{
	Name:         "ctxgo",
	Doc:          "flags campaign/sim goroutines no context reaches",
	PathSuffixes: []string{"internal/campaign", "internal/sim"},
	Run:          runCtxGo,
}

func runCtxGo(pass *Pass) {
	pass.Inspect(func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		// The goroutine is cancellation-aware if any expression anywhere in
		// the go statement — a call argument, an identifier used inside a
		// function literal's body, a ctx-typed field selection — has type
		// context.Context.
		found := false
		ast.Inspect(gs, func(m ast.Node) bool {
			e, ok := m.(ast.Expr)
			if ok && isContextType(pass.TypeOf(e)) {
				found = true
			}
			return !found
		})
		if !found {
			pass.Reportf(gs.Pos(), "goroutine launched without a context; pass a context.Context so cancellation reaches it")
		}
		return true
	})
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
