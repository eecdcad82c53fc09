// Cross-package facts. The framework type-checks each package unit
// from source but resolves its imports through gc export data, which
// preserves types and nothing else: comments — and with them the
// edgelint:immutable / edgelint:shared / edgelint:detfold markers — do
// not survive the package boundary. Facts close that gap, in the
// spirit of golang.org/x/tools/go/analysis facts: while a unit is
// analyzed, marker directives and analyzer-computed function summaries
// are exported into a driver-wide store under a position-independent
// object key; units analyzed later (drivers process units in
// dependency order) look the facts up through the imported objects.
//
// Keys deliberately avoid types.Object identity: every unit
// type-checks in its own importer universe, so the *types.TypeName for
// dag.Graph seen by internal/sched is not pointer-identical to the one
// defined when internal/dag itself was analyzed. ObjectKey reduces
// both to "repro/internal/dag.Graph".

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Fact kinds exported by the framework's marker pre-pass. Analyzers
// export their own kinds (e.g. "noalloc.summary") with Pass.ExportFact.
const (
	// FactImmutable marks a type frozen after construction
	// (edgelint:immutable on its declaration). Value: *ImmutableMark.
	FactImmutable = "mark.immutable"
	// FactShared lists the struct fields annotated shared-by-design
	// (edgelint:shared). Value: SharedFields.
	FactShared = "mark.shared"
	// FactFold marks a function as a conforming deterministic fold
	// (edgelint:detfold on its declaration). Value: *FoldMark.
	FactFold = "mark.detfold"
	// FactHasClone marks a type that declares a Clone (or clone)
	// method of signature func() T / func() *T. Value: *CloneMark.
	FactHasClone = "mark.clone"
	// FactNoAlloc marks a function whose steady-state paths must not
	// allocate (edgelint:noalloc on its declaration). Value: *NoAllocMark.
	FactNoAlloc = "mark.noalloc"
	// FactColdPath marks a function as a cold path: reachable from
	// noalloc roots but exempt from the allocation discipline
	// (edgelint:coldpath on its declaration). Value: *ColdMark.
	FactColdPath = "mark.coldpath"
)

// ImmutableMark is the FactImmutable value: where the marker was
// declared and which functions of that package may write the type.
type ImmutableMark struct {
	// Pkg is the declaring package's import path; constructor names
	// bind only there (a function named AddTask in another package is
	// not the constructor).
	Pkg string
	// Ctors are the allowed writer names, sorted.
	Ctors []string
}

// Allows reports whether fn, declared in package pkg, may write the
// marked type.
func (m *ImmutableMark) Allows(pkg, fn string) bool {
	if pkg != m.Pkg {
		return false
	}
	for _, c := range m.Ctors {
		if c == fn {
			return true
		}
	}
	return false
}

// CtorList renders the allowed writers for diagnostics.
func (m *ImmutableMark) CtorList() []string { return m.Ctors }

// SharedFields is the FactShared value: field names of a struct type
// annotated edgelint:shared.
type SharedFields map[string]bool

// FoldMark is the FactFold value.
type FoldMark struct{}

// CloneMark is the FactHasClone value.
type CloneMark struct{}

// NoAllocMark is the FactNoAlloc value.
type NoAllocMark struct{}

// ColdMark is the FactColdPath value.
type ColdMark struct{}

// Facts is the driver-wide fact store shared by every unit of one
// lint run. It is not safe for concurrent use; drivers analyze units
// sequentially in dependency order.
type Facts struct {
	m map[factKey]any
}

type factKey struct {
	kind string
	obj  string
}

// NewFacts returns an empty store.
func NewFacts() *Facts { return &Facts{m: map[factKey]any{}} }

// Export records a fact of the given kind about obj, replacing any
// previous value.
func (f *Facts) Export(kind string, obj types.Object, fact any) {
	f.m[factKey{kind: kind, obj: ObjectKey(obj)}] = fact
}

// Import returns the fact of the given kind about obj, however many
// packages away it was exported.
func (f *Facts) Import(kind string, obj types.Object) (any, bool) {
	v, ok := f.m[factKey{kind: kind, obj: ObjectKey(obj)}]
	return v, ok
}

// ObjectKey is the position- and universe-independent identity of a
// package-level object: "pkgpath.Name" for types, functions and
// variables, "pkgpath.Recv.Name" for methods. Objects from different
// type-check universes (source-checked vs export-data-imported) map to
// the same key.
func ObjectKey(obj types.Object) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if n := NamedOf(sig.Recv().Type()); n != nil {
				return pkg + "." + n.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return pkg + "." + obj.Name()
}

// ExportMarkers is the framework pre-pass run on every unit before its
// analyzers: it exports the directive-declared facts — immutable
// marks, shared fields, detfold marks — and the Clone-method
// classification, so downstream units (and this unit's own analyzers)
// see them uniformly through the fact store.
func ExportMarkers(u *Unit, facts *Facts) {
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				if d.Tok == token.TYPE {
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						exportTypeMarkers(u, facts, d, ts)
					}
				}
			case *ast.FuncDecl:
				exportFuncMarkers(u, facts, d)
			}
		}
	}
}

// exportTypeMarkers handles one type spec: edgelint:immutable on the
// doc comment, edgelint:shared on the doc comment (naming fields) or
// on individual field doc/line comments.
func exportTypeMarkers(u *Unit, facts *Facts, gd *ast.GenDecl, ts *ast.TypeSpec) {
	obj, ok := u.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	doc := ts.Doc
	if doc == nil && len(gd.Specs) == 1 {
		doc = gd.Doc
	}
	var immutable bool
	var ctors []string
	shared := SharedFields{}
	if doc != nil {
		for _, c := range doc.List {
			if args, ok := Directive(c.Text, "immutable"); ok {
				immutable = true
				ctors = append(ctors, args...)
			}
			if args, ok := Directive(c.Text, "shared"); ok {
				for _, a := range args {
					shared[a] = true
				}
			}
		}
	}
	if st, ok := ts.Type.(*ast.StructType); ok {
		for _, field := range st.Fields.List {
			marked := false
			for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
				if cg == nil {
					continue
				}
				for _, c := range cg.List {
					if _, ok := Directive(c.Text, "shared"); ok {
						marked = true
					}
				}
			}
			if !marked {
				continue
			}
			for _, name := range field.Names {
				shared[name.Name] = true
			}
			if len(field.Names) == 0 { // embedded field
				if tv, ok := u.Info.Types[field.Type]; ok {
					if n := NamedOf(tv.Type); n != nil {
						shared[n.Obj().Name()] = true
					}
				}
			}
		}
	}
	if immutable {
		sort.Strings(ctors)
		pkg := ""
		if obj.Pkg() != nil {
			pkg = obj.Pkg().Path()
		}
		facts.Export(FactImmutable, obj, &ImmutableMark{Pkg: pkg, Ctors: ctors})
	}
	if len(shared) > 0 {
		facts.Export(FactShared, obj, shared)
	}
}

// exportFuncMarkers handles one function declaration: edgelint:detfold
// on the doc comment, and the Clone-method classification of its
// receiver type.
func exportFuncMarkers(u *Unit, facts *Facts, fd *ast.FuncDecl) {
	obj, ok := u.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if _, ok := Directive(c.Text, "detfold"); ok {
				facts.Export(FactFold, obj, &FoldMark{})
			}
			if _, ok := Directive(c.Text, "noalloc"); ok {
				facts.Export(FactNoAlloc, obj, &NoAllocMark{})
			}
			if _, ok := Directive(c.Text, "coldpath"); ok {
				facts.Export(FactColdPath, obj, &ColdMark{})
			}
		}
	}
	if fd.Recv == nil || (fd.Name.Name != "Clone" && fd.Name.Name != "clone") {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return
	}
	if recv := NamedOf(sig.Recv().Type()); recv != nil {
		facts.Export(FactHasClone, recv.Obj(), &CloneMark{})
	}
}
