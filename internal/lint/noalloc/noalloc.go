// Package noalloc enforces the repository's allocation discipline
// inter-procedurally: a function annotated
//
//	// edgelint:noalloc
//
// must contain no allocating constructs on its steady-state paths, and
// neither may anything it calls, however many packages away. The
// analyzer summarizes every function of every analyzed unit bottom-up
// — the allocation sites it contains plus the sites escalated from its
// callees — and exports the summaries as facts, so units analyzed
// later in dependency order see a callee's verdict ("allocates",
// "clean", "cold-only") without re-reading its body. Diagnostics
// surface only at the annotated roots and carry the provenance chain:
// which callee, in which package, introduced the allocation.
//
// Detected constructs: make/new, non-empty slice literals, map
// literals, address-taken composite literals, append without a
// provable capacity reservation (the first argument must be a slice
// expression over an existing base — the x[:0] / x[:cap(x)] reuse
// idiom), map writes, closure literals that capture variables by
// reference, interface boxing at call arguments and returns,
// string<->[]byte/[]rune conversions, non-constant string
// concatenation, variadic calls that materialize an argument slice
// (fmt.Errorf and friends), go statements, and calls into functions
// with no summary (unanalyzed packages, dynamic dispatch).
//
// Escape hatches, in order of preference:
//
//   - // edgelint:coldpath on a function declaration marks the whole
//     function cold — reachable from noalloc roots but exempt (one-time
//     setup, oracle capture, cache fill). Its body is not checked.
//   - // edgelint:coldpath as a line comment waives the allocation
//     sites on the covered lines (the documented amortized growth
//     sites: journal slab growth, snapshot buffer growth, slab
//     half-split).
//   - Allocations that appear inside the argument of a panic(...) call
//     are automatically cold: panic branches never run in steady state.
//
// Two deliberate soundness holes, chosen to match how the hot paths
// are written rather than to be watertight: calls through func-typed
// values are assumed clean (the closure's creation is where the charge
// lands — so cache your closures), and function literals passed
// directly to sort.Search are not charged as captures (the callback
// does not escape; its body is still scanned).
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// FactSummary is the fact kind carrying a *Summary for every function
// of every analyzed unit. An absent summary means the function was
// never analyzed (stdlib, dynamic dispatch) and is assumed to
// allocate; an empty one means it is proven clean.
const FactSummary = "noalloc.summary"

// maxSites bounds a single function's summary so pathological
// allocation-heavy functions do not balloon the fact store; Truncated
// records that the cap was hit.
const maxSites = 8

// AllocSite is one allocating construct reachable from a function: its
// own, or escalated from a callee.
type AllocSite struct {
	// Pos anchors the diagnostic; valid only within the unit that
	// built this summary level. Cross-package escalation re-anchors it
	// at the importing call site.
	Pos token.Pos
	// Desc names the allocating construct.
	Desc string
	// Where names the function whose body contains the raw construct;
	// empty when it is the summarized function itself.
	Where string
	// Chain is the call path from the summarized function down to
	// Where, nearest callee first.
	Chain []string
}

// Summary is the per-function allocation verdict exported as a fact.
type Summary struct {
	// Sites is empty for a clean function.
	Sites []AllocSite
	// Cold marks an edgelint:coldpath function: exempt, and clean from
	// its callers' point of view.
	Cold bool
	// Truncated records that Sites hit maxSites.
	Truncated bool
}

// Analyzer is the noalloc analyzer.
var Analyzer = &lint.Analyzer{
	Name: "noalloc",
	Doc: "noalloc checks that functions annotated edgelint:noalloc — and, transitively " +
		"through cross-package function summaries, everything they call — contain no " +
		"allocating constructs on their steady-state paths; edgelint:coldpath exempts " +
		"cold functions and documented amortized-growth lines",
	Run: run,
}

type analysis struct {
	pass    *lint.Pass
	decls   map[*types.Func]*ast.FuncDecl
	sums    map[*types.Func]*Summary
	working map[*types.Func]bool
	// coldLines are the lines covered by edgelint:coldpath line
	// directives, per file (same coverage rule as edgelint:ignore).
	coldLines map[string]map[int]bool
}

type lineKey struct {
	file string
	line int
	desc string
}

func run(pass *lint.Pass) error {
	a := &analysis{
		pass:      pass,
		decls:     map[*types.Func]*ast.FuncDecl{},
		sums:      map[*types.Func]*Summary{},
		working:   map[*types.Func]bool{},
		coldLines: lint.DirectiveLines(pass.Fset, pass.Files, "coldpath"),
	}
	var order, roots []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			a.decls[fn] = fd
			order = append(order, fn)
			if _, ok := pass.ImportFact(lint.FactNoAlloc, fn); ok {
				roots = append(roots, fn)
			}
		}
	}
	// Summarize and export every function — including the clean ones,
	// so importers can tell "proven clean" from "never analyzed".
	for _, fn := range order {
		pass.ExportFact(FactSummary, fn, a.summarize(fn))
	}
	reported := map[lineKey]bool{}
	for _, root := range roots {
		if _, cold := pass.ImportFact(lint.FactColdPath, root); cold {
			pass.Reportf(a.decls[root].Name.Pos(),
				"%s is marked both edgelint:noalloc and edgelint:coldpath; pick one", renderFunc(root))
			continue
		}
		sum := a.sums[root]
		for _, s := range sum.Sites {
			a.report(root, s, reported)
		}
		if sum.Truncated {
			pass.Reportf(a.decls[root].Name.Pos(),
				"noalloc function %s reaches more allocation sites than shown (summary truncated at %d)",
				renderFunc(root), maxSites)
		}
	}
	return nil
}

// report emits one root diagnostic, deduplicated per line and
// construct so a helper shared by several roots is reported once.
func (a *analysis) report(root *types.Func, s AllocSite, reported map[lineKey]bool) {
	p := a.pass.Fset.Position(s.Pos)
	key := lineKey{file: p.Filename, line: p.Line, desc: s.Desc}
	if reported[key] {
		return
	}
	reported[key] = true
	if len(s.Chain) == 0 {
		a.pass.Reportf(s.Pos, "noalloc function %s allocates: %s", renderFunc(root), s.Desc)
		return
	}
	path := renderFunc(root) + " -> " + strings.Join(s.Chain, " -> ")
	a.pass.Reportf(s.Pos, "noalloc function %s reaches allocation: %s (in %s; path: %s)",
		renderFunc(root), s.Desc, s.Where, path)
}

// summarize computes (memoized) the allocation summary of fn:
// the sites in its own body plus the sites escalated from callees.
// Cycles break by treating the back-edge as clean.
func (a *analysis) summarize(fn *types.Func) *Summary {
	if s, ok := a.sums[fn]; ok {
		return s
	}
	if a.working[fn] {
		return &Summary{}
	}
	a.working[fn] = true
	defer func() { a.working[fn] = false }()

	sum := &Summary{}
	fd := a.decls[fn]
	if fd == nil || fd.Body == nil {
		a.sums[fn] = sum
		return sum
	}
	if _, cold := a.pass.ImportFact(lint.FactColdPath, fn); cold {
		sum.Cold = true
		a.sums[fn] = sum
		return sum
	}
	info := a.pass.TypesInfo
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if a.waived(n.Pos()) || inPanicArg(info, stack) {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			a.checkCall(sum, n)
		case *ast.CompositeLit:
			a.checkComposite(sum, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					a.add(sum, AllocSite{Pos: n.Pos(), Desc: "address-taken composite literal allocates"})
				}
			}
		case *ast.FuncLit:
			a.checkFuncLit(sum, n, stack)
		case *ast.AssignStmt:
			a.checkMapWrite(sum, n)
		case *ast.BinaryExpr:
			a.checkConcat(sum, n)
		case *ast.ReturnStmt:
			a.checkReturn(sum, n, stack, fn)
		case *ast.GoStmt:
			a.add(sum, AllocSite{Pos: n.Pos(), Desc: "go statement allocates"})
		}
		return true
	})
	a.sums[fn] = sum
	return sum
}

// add appends a site to sum, honoring maxSites.
func (a *analysis) add(sum *Summary, s AllocSite) {
	if len(sum.Sites) >= maxSites {
		sum.Truncated = true
		return
	}
	sum.Sites = append(sum.Sites, s)
}

// waived reports whether pos lies on a line covered by an
// edgelint:coldpath line directive.
func (a *analysis) waived(pos token.Pos) bool {
	p := a.pass.Fset.Position(pos)
	return a.coldLines[p.Filename][p.Line]
}

// inPanicArg reports whether the innermost stack node sits inside the
// argument of a builtin panic call: panic branches are automatically
// cold.
func inPanicArg(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "panic" {
			continue
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	return false
}

// checkCall classifies one call expression: builtin allocators,
// allocating conversions, caller-side boxing and variadic
// materialization, and callee summary escalation.
func (a *analysis) checkCall(sum *Summary, call *ast.CallExpr) {
	info := a.pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		a.checkConversion(sum, call, tv.Type)
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				a.add(sum, AllocSite{Pos: call.Pos(), Desc: "make(" + types.ExprString(call.Args[0]) + ") allocates"})
			case "new":
				a.add(sum, AllocSite{Pos: call.Pos(), Desc: "new(" + types.ExprString(call.Args[0]) + ") allocates"})
			case "append":
				if len(call.Args) > 0 && !reuseAppend(call.Args[0]) {
					a.add(sum, AllocSite{Pos: call.Pos(),
						Desc: "append without a capacity reservation may grow its backing array"})
				}
			}
			return
		}
	}
	callee := lint.CalleeFunc(info, call)
	if callee == nil {
		// Call through a func-typed value (cached closures, slack
		// callbacks): assumed clean — the closure's creation is where
		// the allocation charge lands.
		return
	}
	callee = origin(callee)
	a.checkCallArgs(sum, call, callee)
	if whitelisted(callee) {
		return
	}
	cs := a.calleeSummary(callee)
	if cs == nil {
		desc := fmt.Sprintf("call to %s, which has no noalloc summary (unanalyzed package)", renderFunc(callee))
		if isInterfaceMethod(callee) {
			desc = fmt.Sprintf("dynamic call to %s cannot be proven allocation-free", renderFunc(callee))
		}
		a.add(sum, AllocSite{Pos: call.Pos(), Desc: desc})
		return
	}
	if cs.Truncated {
		sum.Truncated = true
	}
	if cs.Cold || len(cs.Sites) == 0 {
		return
	}
	local := a.decls[callee] != nil
	for _, s := range cs.Sites {
		ns := AllocSite{Desc: s.Desc, Where: s.Where,
			Chain: append([]string{renderFunc(callee)}, s.Chain...)}
		if ns.Where == "" {
			ns.Where = renderFunc(callee)
		}
		if local {
			// Same unit: the callee's positions are valid here, so the
			// diagnostic can point at the actual allocation.
			ns.Pos = s.Pos
		} else {
			// Imported summary: re-anchor at this call site.
			ns.Pos = call.Pos()
		}
		a.add(sum, ns)
	}
}

// checkCallArgs flags caller-side allocations of a resolved call:
// variadic argument-slice materialization and value->interface boxing
// of fixed arguments.
func (a *analysis) checkCallArgs(sum *Summary, call *ast.CallExpr, callee *types.Func) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	nfixed := sig.Params().Len()
	if sig.Variadic() {
		nfixed--
		if call.Ellipsis == token.NoPos && len(call.Args) > nfixed {
			a.add(sum, AllocSite{Pos: call.Pos(),
				Desc: fmt.Sprintf("variadic call to %s materializes an argument slice", renderFunc(callee))})
		}
	}
	for i, arg := range call.Args {
		if i >= nfixed {
			// Variadic elements are subsumed by the slice
			// materialization above; a spread passes an existing slice.
			break
		}
		pt := sig.Params().At(i).Type()
		if _, isTP := pt.(*types.TypeParam); isTP {
			// Generic parameter: instantiated by value at compile
			// time, no interface boxing happens.
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		a.checkBox(sum, arg, "argument")
	}
}

// checkBox flags e when assigning it to an interface heap-allocates:
// concrete, non-constant, non-pointer-shaped values box.
func (a *analysis) checkBox(sum *Summary, e ast.Expr, what string) {
	tv, ok := a.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	if tv.Value != nil {
		return // constants box to static data, no heap allocation
	}
	if _, isTuple := tv.Type.(*types.Tuple); isTuple {
		return // multi-value call forwarding
	}
	if types.IsInterface(tv.Type.Underlying()) || lint.BoxingFree(tv.Type) {
		return
	}
	a.add(sum, AllocSite{Pos: e.Pos(),
		Desc: fmt.Sprintf("%s of type %s boxes into an interface", what, tv.Type.String())})
}

// checkConversion flags allocating type conversions: conversions into
// interface types (boxing) and the copying string<->[]byte/[]rune
// conversions.
func (a *analysis) checkConversion(sum *Summary, call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	if types.IsInterface(target.Underlying()) {
		a.checkBox(sum, arg, "conversion operand")
		return
	}
	tv, ok := a.pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	src := tv.Type
	switch {
	case isString(target) && isByteOrRuneSlice(src):
		a.add(sum, AllocSite{Pos: call.Pos(), Desc: "string(...) conversion copies the slice"})
	case isByteOrRuneSlice(target) && isString(src):
		a.add(sum, AllocSite{Pos: call.Pos(), Desc: types.ExprString(call.Fun) + "(...) conversion copies the string"})
	}
}

// checkComposite flags reference-allocating composite literals: slice
// literals with elements and any map literal. Struct and array
// literals are values; an empty slice literal points at zerobase.
func (a *analysis) checkComposite(sum *Summary, lit *ast.CompositeLit) {
	tv, ok := a.pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		if len(lit.Elts) > 0 {
			a.add(sum, AllocSite{Pos: lit.Pos(), Desc: "non-empty slice literal allocates"})
		}
	case *types.Map:
		a.add(sum, AllocSite{Pos: lit.Pos(), Desc: "map literal allocates"})
	}
}

// checkFuncLit flags closure literals that capture enclosing variables
// by reference — each such literal is a heap allocation at every
// evaluation. Literals passed directly to sort.Search are exempt (the
// callback provably does not escape); their bodies are still scanned
// by the enclosing walk.
func (a *analysis) checkFuncLit(sum *Summary, lit *ast.FuncLit, stack []ast.Node) {
	if a.sortSearchArg(stack, lit) {
		return
	}
	if caps := capturedVars(a.pass.TypesInfo, lit); len(caps) > 0 {
		a.add(sum, AllocSite{Pos: lit.Pos(),
			Desc: "closure captures " + strings.Join(caps, ", ") + " by reference"})
	}
}

// capturedVars returns the names of the enclosing-function variables
// lit captures by reference, in source order: variables used in the
// body that are neither declared inside the literal (including its
// parameters) nor package-level. Any capture forces the closure onto
// the heap each time the literal is evaluated.
func capturedVars(info *types.Info, lit *ast.FuncLit) []string {
	declared := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				declared[obj] = true
			}
		}
		return true
	})
	seen := map[types.Object]bool{}
	var out []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || declared[v] || seen[v] {
			return true
		}
		if v.Pkg() == nil || v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
			return true // package-level (or universe) — not a capture
		}
		seen[v] = true
		out = append(out, v.Name())
		return true
	})
	return out
}

// sortSearchArg reports whether lit is a direct argument of a
// sort.Search call (stack top is lit itself).
func (a *analysis) sortSearchArg(stack []ast.Node, lit *ast.FuncLit) bool {
	if len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok {
		return false
	}
	callee := lint.CalleeFunc(a.pass.TypesInfo, call)
	if callee == nil || fullName(origin(callee)) != "sort.Search" {
		return false
	}
	for _, arg := range call.Args {
		if arg == lit {
			return true
		}
	}
	return false
}

// checkMapWrite flags assignments through a map index: any map write
// may trigger bucket allocation (and writes to nil maps panic).
func (a *analysis) checkMapWrite(sum *Summary, as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		tv, ok := a.pass.TypesInfo.Types[ix.X]
		if !ok || tv.Type == nil {
			continue
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			a.add(sum, AllocSite{Pos: lhs.Pos(), Desc: "map write may allocate"})
		}
	}
}

// checkConcat flags non-constant string concatenation.
func (a *analysis) checkConcat(sum *Summary, be *ast.BinaryExpr) {
	if be.Op != token.ADD {
		return
	}
	tv, ok := a.pass.TypesInfo.Types[be]
	if !ok || tv.Type == nil || tv.Value != nil {
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		a.add(sum, AllocSite{Pos: be.Pos(), Desc: "string concatenation allocates"})
	}
}

// checkReturn flags value->interface boxing at return statements,
// against the innermost enclosing function literal's signature (or the
// declared function's).
func (a *analysis) checkReturn(sum *Summary, ret *ast.ReturnStmt, stack []ast.Node, fn *types.Func) {
	var sig *types.Signature
	for i := len(stack) - 1; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			sig, _ = a.pass.TypesInfo.Types[lit].Type.(*types.Signature)
			break
		}
	}
	if sig == nil {
		sig, _ = fn.Type().(*types.Signature)
	}
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return // bare return over named results, or multi-value forwarding
	}
	for i, e := range ret.Results {
		rt := sig.Results().At(i).Type()
		if types.IsInterface(rt.Underlying()) {
			a.checkBox(sum, e, "return value")
		}
	}
}

// calleeSummary resolves a callee's summary: local functions recurse,
// imported ones come from the fact store. Nil means never analyzed.
func (a *analysis) calleeSummary(callee *types.Func) *Summary {
	if a.decls[callee] != nil {
		return a.summarize(callee)
	}
	if fact, ok := a.pass.ImportFact(FactSummary, callee); ok {
		return fact.(*Summary)
	}
	return nil
}

// reuseAppend reports whether the first append argument is a slice
// expression over an existing base — the x[:0] / x[:n] / x[:cap(x)]
// buffer-reuse idiom this repository treats as a capacity reservation.
func reuseAppend(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.SliceExpr)
	return ok
}

// whitelist names the stdlib functions the hot paths may call: proven
// non-allocating and outside the summarized universe.
var whitelist = map[string]bool{
	"sort.Search":                     true,
	"sync.Mutex.Lock":                 true,
	"sync.Mutex.TryLock":              true,
	"sync.Mutex.Unlock":               true,
	"sync/atomic.Int64.Add":           true,
	"sync/atomic.Int64.Load":          true,
	"sync/atomic.Int64.Store":         true,
	"sync/atomic.Uint64.Add":          true,
	"sync.RWMutex.RLock":              true,
	"sync.RWMutex.RUnlock":            true,
	"sync.RWMutex.Lock":               true,
	"sync.RWMutex.Unlock":             true,
	"container/list.List.MoveToFront": true,
	"container/list.List.Len":         true,
}

func whitelisted(fn *types.Func) bool {
	if fn.Pkg() != nil && fn.Pkg().Path() == "math" {
		return true // pure float kernels
	}
	return whitelist[fullName(fn)]
}

// origin maps an instantiated generic function or method back to its
// declared origin, so journal[V] method calls resolve to the decl the
// summarizer indexed.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type().Underlying())
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune ||
		e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// fullName is the import-path-qualified function name used for
// whitelisting ("sort.Search", "sync.Mutex.Lock").
func fullName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := lint.NamedOf(sig.Recv().Type()); n != nil {
			return pkg + n.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// renderFunc is the short package-qualified name used in diagnostics
// ("sched.state.begin").
func renderFunc(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := lint.NamedOf(sig.Recv().Type()); n != nil {
			return pkg + n.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}
