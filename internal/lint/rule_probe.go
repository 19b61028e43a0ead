package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// obsNilSafeTypes are the internal/obs hook types that follow the Probe
// discipline: production code holds nil pointers when observability is
// off, so every pointer-receiver method must be a no-op on nil. The same
// names are bound in internal/live, which holds nil instruments whenever
// its manager runs without a registry.
var obsNilSafeTypes = map[string]bool{
	"Span":         true,
	"Tracer":       true,
	"StateSampler": true,
	"Counter":      true,
	"Gauge":        true,
	"Histogram":    true,
	"Registry":     true,
	"EventLog":     true,
}

// probeNilSafetyAnalyzer enforces the metrics.Probe contract: production code
// paths pass a nil *Probe and pay only a branch, so every method with a
// pointer Probe receiver must begin with a nil-receiver guard — either
//
//	if p == nil { return ... }   (early return)
//	if p != nil { ... }          (guarded body)
//
// as its first statement. Without the guard, instrumented operators crash
// the un-instrumented production path. The internal/obs hook types
// (Tracer, Span, StateSampler and the registry instruments) follow the
// same discipline and get the same check.
var probeNilSafetyAnalyzer = &Analyzer{
	Name: "probe-nil-safety",
	Doc:  "methods on *Probe and the obs hook types must begin with a nil-receiver guard",
	Run: func(pass *Pass) {
		p := pass.Pkg
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Body == nil || len(fn.Body.List) == 0 {
					continue
				}
				recvName, typeName, ok := nilSafeReceiver(p, fn)
				if !ok {
					continue
				}
				if recvName == "" {
					pass.Reportf(fn.Pos(), "method %s has an unnamed *%s receiver and cannot nil-guard it", fn.Name.Name, typeName)
					continue
				}
				if !startsWithNilGuard(fn.Body.List[0], recvName) {
					pass.Reportf(fn.Pos(), "method %s on *%s must begin with an %q nil-receiver guard", fn.Name.Name, typeName, "if "+recvName+" != nil")
				}
			}
		}
	},
}

// nilSafeReceiver reports whether fn's receiver is a pointer to a type
// bound by the nil-safety discipline — *Probe anywhere, or one of the
// internal/obs hook types inside that package — and returns the
// receiver's name and type name.
func nilSafeReceiver(p *Package, fn *ast.FuncDecl) (name, typeName string, ok bool) {
	obj, _ := p.Info.Defs[fn.Name].(*types.Func)
	if obj == nil {
		return "", "", false
	}
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", false
	}
	ptr, ok := recv.Type().(*types.Pointer)
	if !ok {
		return "", "", false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return "", "", false
	}
	typeName = named.Obj().Name()
	switch {
	case typeName == "Probe":
	case obsNilSafeTypes[typeName] && inScope(p, "internal/obs", "internal/live"):
	default:
		return "", "", false
	}
	if len(fn.Recv.List) == 1 && len(fn.Recv.List[0].Names) == 1 {
		n := fn.Recv.List[0].Names[0].Name
		if n != "_" {
			return n, typeName, true
		}
	}
	return "", typeName, true
}

// startsWithNilGuard reports whether stmt is `if recv == nil ...` or
// `if recv != nil ...` (either operand order).
func startsWithNilGuard(stmt ast.Stmt, recv string) bool {
	ifs, ok := stmt.(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	bin, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == recv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isRecv(bin.X) && isNil(bin.Y)) || (isNil(bin.X) && isRecv(bin.Y))
}
