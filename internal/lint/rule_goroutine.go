package lint

import (
	"go/ast"
)

// goroutineHygieneAnalyzer enforces the quit/done shutdown pattern on the
// processor networks. A producer goroutine that sends on a channel with a
// bare `ch <- v` blocks forever once its consumer abandons the stream,
// leaking the goroutine and everything it holds; every send inside a `go
// func` literal in internal/core, internal/stream, internal/engine and
// internal/partition must therefore be one case of a select whose other
// case receives from a quit or done channel, so the consumer closing that
// channel always unblocks the processor. internal/live is in scope too: an unguarded send there would
// leak a goroutine per deregistered query.
// internal/obs (including internal/obs/prof) joined the scope with the
// resource-accounting layer: the exposition server and any future
// profiling goroutines must obey the same shutdown discipline.
// internal/server and driver joined with the network service: a
// subscription pump or client reader that sends without a drain/cancel
// case outlives its HTTP handler or its connection and leaks per client.
var goroutineHygieneAnalyzer = &Analyzer{
	Name: "goroutine-hygiene",
	Doc:  "channel sends in go func literals must select on a quit/done case",
	Run: func(pass *Pass) {
		p := pass.Pkg
		if !inScope(p, "internal/core", "internal/stream", "internal/engine", "internal/partition", "internal/live", "internal/obs", "internal/server", "driver") {
			return
		}
		inspect(p, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			checkGoroutineSends(pass, lit)
			return true
		})
	},
}

// checkGoroutineSends walks the goroutine body (including nested function
// literals, which run on the same goroutine when invoked) and reports any
// send that is not a select case with a companion receive case.
func checkGoroutineSends(pass *Pass, lit *ast.FuncLit) {
	// Track the parent chain so each send can be matched against its
	// enclosing select clause.
	var stack []ast.Node
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		send, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		if !sendInGuardedSelect(stack, send) {
			pass.Reportf(send.Pos(), "bare channel send in a goroutine; wrap in a select with a quit/done receive case")
		}
		return true
	})
}

// sendInGuardedSelect reports whether the send is the comm statement of a
// select case whose select also has a receive case (the quit/done edge).
func sendInGuardedSelect(stack []ast.Node, send *ast.SendStmt) bool {
	// stack ends with the send; walking outward the enclosing nodes are
	// its CommClause, the select's BlockStmt, and the SelectStmt itself.
	if len(stack) < 4 {
		return false
	}
	comm, ok := stack[len(stack)-2].(*ast.CommClause)
	if !ok || comm.Comm != ast.Stmt(send) {
		return false
	}
	sel, ok := stack[len(stack)-4].(*ast.SelectStmt)
	if !ok {
		return false
	}
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc == comm || cc.Comm == nil {
			continue // the send itself, or a default case
		}
		if isReceiveStmt(cc.Comm) {
			return true
		}
	}
	return false
}

func isReceiveStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		u, ok := ast.Unparen(s.X).(*ast.UnaryExpr)
		return ok && u.Op.String() == "<-"
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return false
		}
		u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr)
		return ok && u.Op.String() == "<-"
	}
	return false
}
