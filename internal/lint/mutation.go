// Mutation- and aliasing-analysis helpers shared by the clonecheck,
// immutable and aliasret analyzers: classifying which types carry
// references, which local expressions are freshly allocated, and which
// named types an assignment path writes through.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RefBearing reports whether values of type t carry references —
// i.e. whether a shallow copy of a t aliases mutable state with the
// original. Slices, maps, pointers, channels, funcs, interfaces and
// unsafe pointers are ref-bearing, as are structs and arrays that
// contain any ref-bearing field or element. Strings are immutable in
// Go and therefore not ref-bearing.
func RefBearing(t types.Type) bool {
	return refBearing(t, map[types.Type]bool{})
}

func refBearing(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		// Recursive type: a cycle can only close through a pointer,
		// slice or map, which is already reported as ref-bearing at
		// the point of recursion.
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refBearing(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Array:
		return refBearing(u.Elem(), seen)
	default:
		// Named types reach here only via Underlying; anything
		// unrecognized is treated as ref-bearing to stay conservative.
		return true
	}
}

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

// Freshness classifies expressions within one function body as
// freshly allocated or potentially aliasing pre-existing state. It
// resolves local variables through their defining assignment, so
//
//	cp := make([]seg, len(b.segs))
//	...
//	return &BWTimeline{segs: cp}
//
// recognizes cp as fresh.
type Freshness struct {
	info *types.Info
	defs map[types.Object][]defEntry
}

// defEntry is one assignment to a local variable. End is the position
// just past the assignment's RHS: a use of the variable resolves to
// the last entry ending before it, so `x = append(x, y)` resolves the
// x inside its own RHS to the previous definition rather than cycling.
type defEntry struct {
	end token.Pos
	rhs ast.Expr
}

// NewFreshness builds the local-definition map for body. A use of a
// variable resolves through the textually latest assignment completed
// before the use; element stores (cp[i] = ...) do not redefine cp.
func NewFreshness(info *types.Info, body *ast.BlockStmt) *Freshness {
	f := &Freshness{info: info, defs: map[types.Object][]defEntry{}}
	if body == nil {
		return f
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				f.defs[obj] = append(f.defs[obj], defEntry{end: as.Rhs[i].End(), rhs: as.Rhs[i]})
			}
		}
		return true
	})
	return f
}

// resolve returns the latest definition of obj completed before pos,
// or nil.
func (f *Freshness) resolve(obj types.Object, pos token.Pos) ast.Expr {
	var best ast.Expr
	var bestEnd token.Pos
	for _, d := range f.defs[obj] {
		if d.end <= pos && d.end >= bestEnd {
			best, bestEnd = d.rhs, d.end
		}
	}
	return best
}

// IsFresh reports whether e denotes a freshly allocated value: a
// composite literal (plain or address-taken), make/new, nil, append
// with a fresh first argument, a conversion of a fresh operand, a
// non-conversion call (constructors and Clone methods are assumed to
// return fresh values), or a local variable defined by any of the
// above. Receiver-rooted selectors, derefs and unresolved identifiers
// are not fresh.
func (f *Freshness) IsFresh(e ast.Expr) bool {
	return f.isFresh(e, 0)
}

func (f *Freshness) isFresh(e ast.Expr, depth int) bool {
	if depth > 20 {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.BasicLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return f.isFresh(e.X, depth+1)
		}
		return true // arithmetic on scalars carries no references
	case *ast.Ident:
		if e.Name == "nil" {
			return true
		}
		obj := f.info.Uses[e]
		if obj == nil {
			obj = f.info.Defs[e]
		}
		if def := f.resolve(obj, e.Pos()); def != nil {
			return f.isFresh(def, depth+1)
		}
		return false
	case *ast.CallExpr:
		if tv, ok := f.info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion: []T(x) aliases x's backing store.
			if len(e.Args) == 1 {
				return f.isFresh(e.Args[0], depth+1)
			}
			return false
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "make", "new":
				return true
			case "append":
				return len(e.Args) > 0 && f.isFresh(e.Args[0], depth+1)
			}
		}
		// Any other call — a constructor, a Clone method — is assumed
		// to return a fresh value; its own Clone is checked separately.
		return true
	default:
		return false
	}
}

// Write is one mutation of an addressable path: an assignment,
// inc/dec, copy destination, or append through a named slice type.
type Write struct {
	// Expr is the written path (the LHS, the copy destination, or the
	// first append argument).
	Expr ast.Expr
	// Pos anchors the diagnostic.
	Pos token.Pos
	// Kind is "assign", "incdec", "copy" or "append".
	Kind string
}

// Writes collects every mutation of an addressable path in body:
// assignment LHSs (excluding the new variables of :=), ++/--, copy
// destinations, and first arguments of append calls (appending may
// write the shared backing array in place when capacity allows).
func Writes(info *types.Info, body ast.Node) []Write {
	var out []Write
	if body == nil {
		return out
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if n.Tok == token.DEFINE {
					continue // := introduces variables, writes nothing pre-existing
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				out = append(out, Write{Expr: lhs, Pos: lhs.Pos(), Kind: "assign"})
			}
		case *ast.IncDecStmt:
			out = append(out, Write{Expr: n.X, Pos: n.X.Pos(), Kind: "incdec"})
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok || len(n.Args) == 0 {
				return true
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			switch id.Name {
			case "copy":
				out = append(out, Write{Expr: n.Args[0], Pos: n.Args[0].Pos(), Kind: "copy"})
			case "append":
				out = append(out, Write{Expr: n.Args[0], Pos: n.Args[0].Pos(), Kind: "append"})
			}
		}
		return true
	})
	return out
}

// DecomposePath unwinds a written path expression — selectors, index
// expressions, derefs, parens — to its root expression, collecting the
// named types the path writes through. For g.tasks[id].Cost the owners
// are (Task's named type if any omitted intermediates) … practically:
// the type of every prefix the path selects or indexes into, resolved
// through NamedOf. The root is the leftmost expression (usually an
// identifier).
func DecomposePath(info *types.Info, e ast.Expr) (root ast.Expr, owners []*types.Named) {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if t := typeOf(info, x.X); t != nil {
				if n := NamedOf(t); n != nil {
					owners = append(owners, n)
				}
			}
			e = x.X
		case *ast.IndexExpr:
			if t := typeOf(info, x.X); t != nil {
				if n := NamedOf(t); n != nil {
					owners = append(owners, n)
				}
			}
			e = x.X
		case *ast.SliceExpr:
			if t := typeOf(info, x.X); t != nil {
				if n := NamedOf(t); n != nil {
					owners = append(owners, n)
				}
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e, owners
		}
	}
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
