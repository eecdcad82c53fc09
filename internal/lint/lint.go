// Package lint is a small, dependency-free analysis framework in the
// spirit of golang.org/x/tools/go/analysis, built on the standard
// library's go/ast and go/types. It exists because this repository
// enforces domain invariants — tolerance-aware float time comparisons,
// seeded randomness, verified schedules, handled errors — mechanically
// rather than by reviewer vigilance, and the x/tools module is not a
// dependency of this offline-buildable module.
//
// An Analyzer inspects one type-checked package unit (a Pass) and
// reports diagnostics. Units are produced by the loader in load.go
// (driven by `go list -export`, exactly like `go vet` drives its
// analyzers) or by the fixture loader in the linttest subpackage.
//
// Diagnostics can be suppressed per line with a directive comment on
// the offending line or the line directly above it:
//
//	// edgelint:ignore floateq — exact ordering comparison
//
// naming one or more analyzers (or "all").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore
	// directives; it must be a lowercase identifier.
	Name string
	// Doc is a one-paragraph description of what the analyzer flags.
	Doc string
	// Run inspects the pass and reports diagnostics via pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Pass carries one analyzer's view of one type-checked package unit.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Unit is one type-checked package ready for analysis: either a plain
// package, a package augmented with its in-package test files, or an
// external (_test) test package.
type Unit struct {
	// Path is the unit's import path; external test units carry the
	// "_test" suffix ("repro/internal/sched_test").
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Run applies the analyzers to the unit, in order, and returns the
// diagnostics that survive ignore directives, sorted by position.
func (u *Unit) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			diags:     &diags,
		}
		if err := runAnalyzer(a, pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", u.Path, a.Name, err)
		}
	}
	diags = filterIgnored(u.Fset, u.Files, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// runAnalyzer invokes a.Run, converting a panic into an error so one
// analyzer crashing on one unit surfaces as a driver failure for that
// unit instead of killing the whole process (and with it the
// diagnostics of every other unit).
func runAnalyzer(a *Analyzer, pass *Pass) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("analyzer panicked: %v", r)
		}
	}()
	return a.Run(pass)
}

// IsFloat reports whether t's underlying type is a floating-point
// basic type (including untyped float).
func IsFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// CalleeFunc resolves the called function or method of a call
// expression, or nil for builtins, type conversions and calls of
// function-typed values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsErrorType reports whether t is the built-in error interface.
func IsErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// filterIgnored drops diagnostics on lines covered by an
// "edgelint:ignore" directive comment: the directive's own line, the
// rest of its comment group (the reason may wrap), and the first line
// after the group — so a directive placed above the offending code
// keeps working when its justification spans several comment lines.
func filterIgnored(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	// suppressed[filename][line] = set of analyzer names (or "all").
	suppressed := map[string]map[int]map[string]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			groupEnd := fset.Position(cg.End()).Line
			for _, c := range cg.List {
				names := parseIgnore(c.Text)
				if len(names) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				m := suppressed[pos.Filename]
				if m == nil {
					m = map[int]map[string]bool{}
					suppressed[pos.Filename] = m
				}
				for line := pos.Line; line <= groupEnd+1; line++ {
					if m[line] == nil {
						m[line] = map[string]bool{}
					}
					for _, n := range names {
						m[line][n] = true
					}
				}
			}
		}
	}
	var out []Diagnostic
	for _, d := range diags {
		if s := suppressed[d.Pos.Filename][d.Pos.Line]; s != nil && (s[d.Analyzer] || s["all"]) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// parseIgnore extracts the analyzer names of an "edgelint:ignore"
// directive, or nil if the comment is not one. Names run until the
// end of the comment or an em/double dash starting a free-form reason,
// and may be separated by spaces, commas, or both
// ("floateq,errflow" and "floateq, errflow" are equivalent).
func parseIgnore(comment string) []string {
	args, ok := directive(comment, "ignore")
	if !ok {
		return nil
	}
	var names []string
	for _, f := range args {
		ok := f != ""
		for _, r := range f {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		names = append(names, f)
	}
	return names
}

// directive parses an "edgelint:<name>" directive comment and returns
// its arguments: comma- or space-separated tokens running until the
// end of the comment or an em/double dash that starts a free-form
// reason. The second result is false if the comment does not contain
// the directive at all; a bare directive yields (nil, true).
func directive(comment, name string) ([]string, bool) {
	text := strings.TrimPrefix(strings.TrimPrefix(comment, "//"), "/*")
	marker := "edgelint:" + name
	idx := strings.Index(text, marker)
	if idx < 0 {
		return nil, false
	}
	rest := text[idx+len(marker):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' && rest[0] != ',' {
		// "edgelint:ignorex" is not "edgelint:ignore".
		return nil, false
	}
	rest = strings.ReplaceAll(rest, ",", " ")
	var args []string
	for _, f := range strings.Fields(rest) {
		if f == "—" || f == "--" || f == "-" {
			break
		}
		args = append(args, f)
	}
	return args, true
}
