package lint

import (
	"go/ast"
	"go/types"
)

// noPanicAnalyzer forbids panic in library code. The engine is grown toward
// serving production traffic; a panic in an operator or the optimizer
// takes the whole process down on one bad query. Executable entry points
// (cmd/, examples/) may panic — they own the process — and a library site
// that is genuinely unreachable (exhaustive switches over closed enums,
// Must* constructors for statically known inputs) carries a
// "// lint:allow panic <justification>" comment.
var noPanicAnalyzer = &Analyzer{
	Name: "no-panic",
	Doc:  "no panic in library code without a lint:allow justification",
	Run: func(pass *Pass) {
		p := pass.Pkg
		if inScope(p, "cmd", "examples") {
			return
		}
		inspect(p, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			pass.Reportf(call.Pos(), "panic in library code; return an error, or justify with // lint:allow panic")
			return true
		})
	},
}
