// Package detfold enforces the deterministic-fold contract that keeps
// merges over unordered sources bit-identical from run to run (see
// selectByEFT in internal/sched/eft.go, the canonical conforming
// fold): candidates are compared with explicit fptime
// epsilon tolerance, and epsilon-equal candidates are ordered by an
// integer tie-break on a total ID order — never by arrival order.
//
// The analyzer looks at merge regions, where iteration order is
// nondeterministic by construction: range over a map, range over a
// channel, and the communication clauses of a select statement. Inside
// a merge region it flags
//
//   - compound floating-point accumulation (+=, -=, *=, /=) into a
//     variable declared outside the region — float addition is not
//     associative, so the result depends on arrival order. Accumulate
//     into ID-indexed slots (out[id] = v) and reduce in a second,
//     deterministically ordered pass instead;
//   - guarded selections — an if statement whose body assigns a
//     float-bearing variable declared outside the region — unless the
//     condition either calls a function marked `edgelint:detfold`
//     (delegating the ordering decision to a checked fold), or both
//     compares via an fptime epsilon helper (LessEps/EqEps) and
//     includes an integer comparison acting as the tie-break.
//
// Inside a function marked `edgelint:detfold` the contract inverts:
// the function IS the fold, so any bare float ordering comparison
// (<, >, <=, >=) in its body is flagged — it must route comparisons
// through fptime. The mark is exported as a fact, so delegation is
// recognized across package boundaries.
//
// False positives carry `edgelint:ignore detfold — reason`.
package detfold

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Analyzer flags order-dependent floating-point folds in merge regions.
var Analyzer = &lint.Analyzer{
	Name: "detfold",
	Doc: "parallel reduces must be deterministic: in merge regions (range " +
		"over map or channel, select clauses) float accumulation into outer " +
		"variables and guarded selections without fptime tolerance plus an " +
		"integer tie-break depend on arrival order. Mark conforming folds " +
		"with `edgelint:detfold` (their bodies may not compare floats bare) " +
		"and delegate to them; annotate provably order-free reductions with " +
		"`edgelint:ignore detfold — reason`.",
	Run: run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && fn != nil {
				if _, marked := pass.ImportFact(lint.FactFold, fn); marked {
					checkMarkedFold(pass, fd)
				}
			}
			findRegions(pass, fd.Body)
		}
	}
	return nil
}

// checkMarkedFold enforces the contract inside an edgelint:detfold
// function: every float ordering comparison must go through fptime.
func checkMarkedFold(pass *lint.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || !isOrdering(b.Op) {
			return true
		}
		if lint.IsFloat(info.TypeOf(b.X)) || lint.IsFloat(info.TypeOf(b.Y)) {
			pass.Reportf(b.Pos(),
				"bare float comparison in detfold-marked fold %s: compare via "+
					"fptime.LessEps/EqEps and break epsilon-ties on a total ID order",
				fd.Name.Name)
		}
		return true
	})
}

// findRegions walks a function body looking for merge regions and
// checks each one. Regions may nest; each is checked independently.
func findRegions(pass *lint.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			switch info.TypeOf(n.X).Underlying().(type) {
			case *types.Map:
				checkRegion(pass, n, n.Body, "map iteration")
			case *types.Chan:
				checkRegion(pass, n, n.Body, "channel merge")
			}
		case *ast.SelectStmt:
			for _, cl := range n.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok {
					continue
				}
				checkRegion(pass, n, &ast.BlockStmt{List: cc.Body}, "select merge")
			}
		}
		return true
	})
}

// checkRegion flags order-dependent folds inside one merge region.
// region is the enclosing statement (its source extent decides which
// variables count as "outer"); body is the code that runs per arrival.
func checkRegion(pass *lint.Pass, region ast.Node, body *ast.BlockStmt, kind string) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if isCompoundFloat(info, n) {
				if tgt := outerTarget(pass, region, n.Lhs[0]); tgt != "" {
					pass.Reportf(n.Pos(),
						"order-dependent float accumulation into %s in a %s: float "+
							"addition is not associative across arrival orders; accumulate "+
							"into ID-indexed slots and reduce in a deterministic pass",
						tgt, kind)
				}
			}
		case *ast.IfStmt:
			checkSelection(pass, region, n, kind)
			// The nested bodies are revisited when their own IfStmt is
			// reached; keep descending for assignments and deeper regions.
		}
		return true
	})
}

// checkSelection examines one guarded selection: an if statement whose
// body assigns a float-bearing variable declared outside the region.
func checkSelection(pass *lint.Pass, region ast.Node, ifs *ast.IfStmt, kind string) {
	tgt := selectionTarget(pass, region, ifs.Body)
	if tgt == "" {
		return
	}
	cond := analyzeCond(pass, ifs.Cond)
	switch {
	case cond.markedCall:
		// Delegated to a checked fold: conforming.
	case cond.bareFloatCmp != token.NoPos:
		pass.Reportf(cond.bareFloatCmp,
			"order-dependent selection of %s in a %s compares floats bare: use "+
				"fptime.LessEps/EqEps with an integer tie-break on a total ID order, "+
				"or delegate to an edgelint:detfold fold", tgt, kind)
	case cond.epsCall && cond.intCmp:
		// Epsilon comparison plus integer tie-break: conforming.
	case cond.epsCall:
		pass.Reportf(ifs.Cond.Pos(),
			"selection of %s in a %s is lacking a tie-break: epsilon-equal "+
				"candidates arrive in nondeterministic order; add an integer "+
				"tie-break on a total ID order", tgt, kind)
	default:
		pass.Reportf(ifs.Cond.Pos(),
			"selection of %s in a %s does not establish a deterministic order: "+
				"compare via fptime with an integer tie-break on a total ID order, "+
				"or delegate to an edgelint:detfold fold", tgt, kind)
	}
}

// selectionTarget returns the rendered name of the first float-bearing
// variable declared outside the region that the if body assigns to, or
// "" if there is none. Index-expression targets are exempt: a write to
// an ID-indexed slot is deterministic regardless of arrival order.
func selectionTarget(pass *lint.Pass, region ast.Node, body *ast.BlockStmt) string {
	tgt := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if tgt != "" {
			return false
		}
		if _, ok := n.(*ast.IfStmt); ok {
			return false // nested selections are judged by their own condition
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if t := outerTarget(pass, region, lhs); t != "" {
				tgt = t
				return false
			}
		}
		return true
	})
	return tgt
}

// outerTarget returns the rendered name of lhs if it is an identifier
// or selector whose root variable is float-bearing and declared outside
// the region, "" otherwise.
func outerTarget(pass *lint.Pass, region ast.Node, lhs ast.Expr) string {
	info := pass.TypesInfo
	lhs = ast.Unparen(lhs)
	switch lhs.(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return "" // index targets are ID-addressed slots; others out of scope
	}
	if !bearsFloat(info.TypeOf(lhs), nil) {
		return ""
	}
	id, ok := lint.PathRoot(lhs).(*ast.Ident)
	if !ok {
		return ""
	}
	obj, ok := info.Uses[id].(*types.Var)
	if !ok {
		return ""
	}
	if obj.Pos() >= region.Pos() && obj.Pos() < region.End() {
		return "" // declared inside the region: per-arrival scratch
	}
	return render(lhs)
}

// condFacts summarizes what a selection condition establishes.
type condFacts struct {
	markedCall   bool      // calls an edgelint:detfold-marked fold
	epsCall      bool      // calls an fptime epsilon helper
	intCmp       bool      // orders integers somewhere (the tie-break)
	bareFloatCmp token.Pos // position of a bare float ordering comparison
}

func analyzeCond(pass *lint.Pass, cond ast.Expr) condFacts {
	info := pass.TypesInfo
	var cf condFacts
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := lint.CalleeFunc(info, n)
			if fn == nil {
				return true
			}
			if _, ok := pass.ImportFact(lint.FactFold, fn); ok {
				cf.markedCall = true
			}
			if isEpsHelper(fn) {
				cf.epsCall = true
			}
		case *ast.BinaryExpr:
			if !isOrdering(n.Op) {
				return true
			}
			if lint.IsFloat(info.TypeOf(n.X)) || lint.IsFloat(info.TypeOf(n.Y)) {
				if cf.bareFloatCmp == token.NoPos {
					cf.bareFloatCmp = n.Pos()
				}
			} else if isInteger(info.TypeOf(n.X)) || isInteger(info.TypeOf(n.Y)) {
				cf.intCmp = true
			}
		}
		return true
	})
	return cf
}

// isEpsHelper recognizes the fptime tolerance helpers: any function of
// a package named fptime, or one whose name mentions Eps.
func isEpsHelper(fn *types.Func) bool {
	if fn.Pkg() != nil && fn.Pkg().Name() == "fptime" {
		return true
	}
	return strings.Contains(fn.Name(), "Eps")
}

func isOrdering(op token.Token) bool {
	switch op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

// isCompoundFloat reports whether as is a +=/-=/*=//= whose (single)
// target carries floating-point state.
func isCompoundFloat(info *types.Info, as *ast.AssignStmt) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	return len(as.Lhs) == 1 && lint.IsFloat(info.TypeOf(as.Lhs[0]))
}

func isInteger(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// bearsFloat reports whether t transitively carries floating-point
// state: a float basic type, or a struct/array/slice/map/pointer whose
// element or field does. seen guards recursive types.
func bearsFloat(t types.Type, seen map[types.Type]bool) bool {
	if t == nil {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsFloat != 0
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if bearsFloat(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return bearsFloat(u.Elem(), seen)
	case *types.Slice:
		return bearsFloat(u.Elem(), seen)
	case *types.Map:
		return bearsFloat(u.Elem(), seen)
	case *types.Pointer:
		return bearsFloat(u.Elem(), seen)
	}
	return false
}

// render prints an ident or selector path for diagnostics.
func render(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	}
	return "value"
}
