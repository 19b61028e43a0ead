package lint

import (
	"go/ast"
	"go/types"
)

// determinismAnalyzer protects the empirical oracles. Tables 1–3 and the
// figures are reproduced by experiments whose cell values the tests
// assert exactly; internal/experiments and internal/core therefore must
// not consult wall-clock time, draw from the globally seeded random
// source, or iterate a map in emission order. Seeded generators
// (rand.New(rand.NewSource(seed))) are the sanctioned randomness, and map
// iteration is fine once the keys are materialized and sorted — rewrite,
// or justify a benign site with // lint:allow determinism.
var determinismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "no wall-clock, global randomness, or map-order iteration in the oracle packages",
	Run: func(pass *Pass) {
		p := pass.Pkg
		if !inScope(p, "internal/experiments", "internal/core") {
			return
		}
		inspect(p, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(p, n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if fn.Type().(*types.Signature).Recv() != nil {
					return true // methods (e.g. on a seeded *rand.Rand) are fine
				}
				switch fn.Pkg().Path() {
				case "time":
					if fn.Name() == "Now" {
						pass.Reportf(n.Pos(), "time.Now in an oracle package; results must be reproducible")
					}
				case "math/rand", "math/rand/v2":
					if fn.Name() != "New" && fn.Name() != "NewSource" {
						pass.Reportf(n.Pos(), "globally seeded rand.%s in an oracle package; use rand.New(rand.NewSource(seed))", fn.Name())
					}
				}
			case *ast.RangeStmt:
				t := p.Info.Types[n.X].Type
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map iteration order is nondeterministic; iterate sorted keys (or justify with // lint:allow determinism)")
				}
			}
			return true
		})
	},
}

// calleeFunc resolves the called function or method of a call expression,
// or nil for builtins, conversions and calls of function values.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
