// Cross-package facts. The framework type-checks each package unit
// from source but resolves its imports through gc export data, which
// preserves types and nothing else: comments — and with them the
// edgelint:noalloc / edgelint:coldpath markers — do not survive the
// package boundary. Facts close that gap, in the spirit of
// golang.org/x/tools/go/analysis facts: while a unit is
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
	"go/types"
)

// Fact kinds exported by the framework's marker pre-pass. Analyzers
// export their own kinds (e.g. "noalloc.summary") with Pass.ExportFact.
const (
	// FactNoAlloc marks a function whose steady-state paths must not
	// allocate (edgelint:noalloc on its declaration). Value: *NoAllocMark.
	FactNoAlloc = "mark.noalloc"
	// FactColdPath marks a function as a cold path: reachable from
	// noalloc roots but exempt from the allocation discipline
	// (edgelint:coldpath on its declaration). Value: *ColdMark.
	FactColdPath = "mark.coldpath"
)

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
// analyzers: it exports the directive-declared function facts —
// noalloc and coldpath marks — so downstream units (and this
// unit's own analyzers) see them uniformly through the fact store.
func ExportMarkers(u *Unit, facts *Facts) {
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			obj, ok := u.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			for _, c := range fd.Doc.List {
				if _, ok := Directive(c.Text, "noalloc"); ok {
					facts.Export(FactNoAlloc, obj, &NoAllocMark{})
				}
				if _, ok := Directive(c.Text, "coldpath"); ok {
					facts.Export(FactColdPath, obj, &ColdMark{})
				}
			}
		}
	}
}
