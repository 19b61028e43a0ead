package lint

import (
	"go/ast"
	"go/token"
)

// workerContextAnalyzer enforces the governed-worker discipline introduced with
// the workspace governor: every goroutine spawned in internal/core,
// internal/engine or internal/live must carry a visible cancellation edge,
// so that first-error propagation, breaker trips
// (live standing queries) and consumer abandonment (core processors) can
// always unwind it. A spawn satisfies the rule when the spawned call
// references a context.Context value — where the first failing worker
// cancels the shared context — or when its body
// performs a channel receive, the quit/done idiom: a select that sends
// beside a receive on a channel the owner closes to abandon the worker.
// A goroutine with neither is unstoppable from the outside: under a fault
// or a governor abort it leaks, holding its workspace forever.
// internal/server and driver are in scope with the network service:
// server-side pumps must die with the request context on drain, and
// client-side readers with the query context on cancellation.
var workerContextAnalyzer = &Analyzer{
	Name: "worker-context",
	Doc:  "goroutines in governed packages must carry a context.Context or quit-channel cancellation edge",
	Run: func(pass *Pass) {
		p := pass.Pkg
		if !inScope(p, "internal/core", "internal/engine", "internal/live", "internal/server", "driver") {
			return
		}
		inspect(p, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goroutineHasCancelEdge(p, gs) {
				pass.Reportf(gs.Pos(), "goroutine spawn without a cancellation edge; thread a context.Context (or a quit-channel receive) through the worker so faults and governor aborts can unwind it")
			}
			return true
		})
	},
}

// goroutineHasCancelEdge walks the spawned call — callee, arguments, and
// the body when the callee is a function literal — looking for either a
// context.Context-typed expression or a channel receive.
func goroutineHasCancelEdge(p *Package, gs *ast.GoStmt) bool {
	found := false
	ast.Inspect(gs.Call, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
				return false
			}
		case ast.Expr:
			if tv, ok := p.Info.Types[n]; ok && tv.Type != nil && tv.Type.String() == "context.Context" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
