// Type and assignment-path helpers shared by the noalloc and detfold
// analyzers: which types box when converted to an interface, which
// named type a receiver resolves to, and where a written path roots.

package lint

import (
	"go/ast"
	"go/types"
)

// BoxingFree reports whether converting a value of type t to an
// interface cannot heap-allocate: pointers, channels, maps, funcs,
// unsafe pointers and nil-able interfaces are pointer-shaped and fit an
// interface word directly. Everything else (ints, floats, strings,
// slices, structs, arrays, bools) boxes — the runtime copies the value
// to the heap unless escape analysis intervenes, which a static
// discipline cannot rely on.
func BoxingFree(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer || b.Kind() == types.UntypedNil
	}
	return false
}

// NamedOf resolves t to its named type, looking through one level of
// pointer indirection (the shape of method receivers and struct-field
// owners). Returns nil for unnamed types.
func NamedOf(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// PathRoot unwinds a written path expression — selectors, index
// expressions, slices, derefs, parens — to its root, the leftmost
// expression (usually an identifier): g.tasks[id].Cost roots at g.
func PathRoot(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return x
		}
	}
}
