package lint

import (
	"go/ast"
	"go/types"
)

// errorDisciplineAnalyzer is an errcheck-lite over go/types: a call whose
// error result is silently dropped as an expression statement hides scan
// failures, constraint violations and I/O errors from the caller. Writes
// to the infallible in-memory writers (strings.Builder, bytes.Buffer) and
// best-effort terminal output (fmt.Print* and Fprint* to os.Stdout or
// os.Stderr) are exempt, as are examples; explicit `_ =` discards and
// deferred cleanup are considered deliberate and are not flagged.
var errorDisciplineAnalyzer = &Analyzer{
	Name: "error-discipline",
	Doc:  "calls returning error must not be dropped as bare statements",
	Run: func(pass *Pass) {
		p := pass.Pkg
		if inScope(p, "examples") {
			return
		}
		inspect(p, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			t := p.Info.Types[call].Type
			if t == nil || !returnsError(t) || exemptCall(p, call) {
				return true
			}
			pass.Reportf(call.Pos(), "unchecked error result; handle it, assign to _, or justify with // lint:allow error-discipline")
			return true
		})
	},
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func returnsError(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if returnsError(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return types.Implements(t, errorIface)
}

// exemptCall reports whether the dropped error is conventionally ignored.
func exemptCall(p *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(p, call)
	if fn == nil {
		return false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return infallibleWriterType(recv.Type())
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) == 0 {
			return false
		}
		w := ast.Unparen(call.Args[0])
		if t := p.Info.Types[w].Type; t != nil && infallibleWriterType(t) {
			return true
		}
		if sel, ok := w.(*ast.SelectorExpr); ok {
			if obj, ok := p.Info.Uses[sel.Sel].(*types.Var); ok && obj.Pkg() != nil &&
				obj.Pkg().Path() == "os" && (obj.Name() == "Stdout" || obj.Name() == "Stderr") {
				return true
			}
		}
	}
	return false
}

// infallibleWriterType reports whether t is (a pointer to)
// strings.Builder or bytes.Buffer, whose Write methods never return a
// non-nil error.
func infallibleWriterType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	return full == "strings.Builder" || full == "bytes.Buffer"
}
