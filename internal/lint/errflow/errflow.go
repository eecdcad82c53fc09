// Package errflow flags dropped error returns from this module's own
// exported APIs. The scheduling pipeline threads failure through
// errors (malformed DAGs, infeasible reservations, verifier reports);
// a call like
//
//	graphio.WriteTopology(w, net) // result ignored entirely
//	g, _ := b.Build()             // error blanked
//
// silently turns "the input was invalid" into "the numbers are
// garbage". Third-party and stdlib calls are out of scope — this
// analyzer enforces the module's own contract, not general hygiene
// (fmt.Println's error is conventionally ignored).
package errflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Analyzer flags dropped errors from module APIs.
var Analyzer = &lint.Analyzer{
	Name: "errflow",
	Doc:  "flags dropped or blank-assigned error returns from this module's exported functions",
	Run:  run,
}

// modulePath is the module whose exported APIs are checked.
const modulePath = "repro"

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				checkDropped(pass, st.X)
			case *ast.GoStmt:
				checkDropped(pass, st.Call)
			case *ast.DeferStmt:
				checkDropped(pass, st.Call)
			case *ast.AssignStmt:
				checkBlanked(pass, st)
			}
			return true
		})
	}
	return nil
}

// moduleCallee returns the called module-exported function with an
// error result, or nil.
func moduleCallee(pass *lint.Pass, e ast.Expr) (*types.Func, *ast.CallExpr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	fn := lint.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || !fn.Exported() {
		return nil, nil
	}
	path := fn.Pkg().Path()
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return nil, nil
	}
	return fn, call
}

// errResults returns the indices of error-typed results of fn.
func errResults(fn *types.Func) []int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var idx []int
	for i := 0; i < sig.Results().Len(); i++ {
		if lint.IsErrorType(sig.Results().At(i).Type()) {
			idx = append(idx, i)
		}
	}
	return idx
}

// checkDropped flags a call statement that discards an error result
// outright.
func checkDropped(pass *lint.Pass, e ast.Expr) {
	fn, call := moduleCallee(pass, e)
	if fn == nil || len(errResults(fn)) == 0 {
		return
	}
	pass.Reportf(call.Pos(), "error returned by %s.%s is dropped; handle it or assign it explicitly", fn.Pkg().Name(), fn.Name())
}

// checkBlanked flags `x, _ := Call()` where the blanked position is a
// module API's error result.
func checkBlanked(pass *lint.Pass, st *ast.AssignStmt) {
	if len(st.Rhs) != 1 {
		return
	}
	fn, call := moduleCallee(pass, st.Rhs[0])
	if fn == nil {
		return
	}
	for _, i := range errResults(fn) {
		if i >= len(st.Lhs) {
			continue
		}
		if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(call.Pos(), "error returned by %s.%s is assigned to the blank identifier; handle it", fn.Pkg().Name(), fn.Name())
		}
	}
}
