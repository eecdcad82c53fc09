package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// ListedPackage is the subset of `go list -json` output the loader
// consumes.
type ListedPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	Export       string
	Standard     bool
	ForTest      string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	ImportMap    map[string]string
	Error        *struct{ Err string }
}

// GoList runs `go list -json` with the given arguments in dir and
// decodes the package stream.
func GoList(dir string, args ...string) ([]*ListedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*ListedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := &ListedPackage{}
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// ExportLookup resolves import paths to compiled export-data files, as
// produced by `go list -export`. It implements the lookup half of the
// gc importer.
type ExportLookup map[string]string

// StdlibExports returns the export-data index for the dependency
// closure of the given stdlib packages (run from dir, which must be
// inside a module). Used by fixture loading, where only stdlib imports
// must resolve outside the fixture tree.
func StdlibExports(dir string, roots ...string) (ExportLookup, error) {
	pkgs, err := GoList(dir, append([]string{"-deps", "-export"}, roots...)...)
	if err != nil {
		return nil, err
	}
	exports := ExportLookup{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// NewGCImporter builds a types importer that reads gc export data via
// the lookup index, remapping paths through importMap first
// (test-variant resolution, like the go command's own ImportMap).
func NewGCImporter(fset *token.FileSet, exports ExportLookup, importMap map[string]string) types.ImporterFrom {
	return gcImporter(fset, exports, importMap, nil)
}

// gcImporter is NewGCImporter with an optional fallback importer for
// paths without export data.
func gcImporter(fset *token.FileSet, exports ExportLookup, importMap map[string]string, fallback types.ImporterFrom) types.ImporterFrom {
	lookup := func(path string) (io.ReadCloser, error) {
		if m, ok := importMap[path]; ok {
			path = m
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	imp := importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	if fallback == nil {
		return imp
	}
	return &chainImporter{first: imp, exports: exports, importMap: importMap, second: fallback}
}

// chainImporter tries gc export data first and falls back to a second
// importer for paths without export data (fixture-local packages).
type chainImporter struct {
	first     types.ImporterFrom
	exports   ExportLookup
	importMap map[string]string
	second    types.ImporterFrom
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	p := path
	if m, ok := c.importMap[path]; ok {
		p = m
	}
	if _, ok := c.exports[p]; ok {
		return c.first.ImportFrom(path, dir, mode)
	}
	return c.second.ImportFrom(path, dir, mode)
}

// newInfo returns a types.Info with all maps the analyzers need.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// TypeCheck parses and type-checks one package unit.
func TypeCheck(fset *token.FileSet, path, dir string, fileNames []string, imp types.Importer) (*Unit, error) {
	var files []*ast.File
	for _, name := range fileNames {
		fn := name
		if !filepath.IsAbs(fn) {
			fn = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Unit{Path: path, Dir: dir, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// Failure records one package unit the loader could not deliver — a
// go list load error or a type-check failure. Drivers report failures
// and exit non-zero for them: a package that cannot be analyzed must
// not read as a clean pass.
type Failure struct {
	// Path is the unit's import path (test-variant suffix stripped).
	Path string
	// Err describes what went wrong.
	Err error
}

func (f Failure) String() string { return f.Path + ": " + f.Err.Error() }

// LoadPackages loads the module packages matched by the go package
// patterns — including their in-package and external test files as
// separate analysis units — type-checked against gc export data, the
// same way `go vet` feeds its analyzers. dir is the working directory
// for the go command.
//
// Units that fail to load or type-check come back as Failures rather
// than aborting the run, so the healthy packages are still analyzed;
// the error return is reserved for whole-run problems (go list itself
// failing, no such pattern).
func LoadPackages(dir string, patterns []string) ([]*Unit, []Failure, error) {
	// -e keeps go list alive on broken packages: they arrive with
	// p.Error set and become Failures instead of killing the run.
	args := append([]string{"-e", "-deps", "-test", "-export"}, patterns...)
	pkgs, err := GoList(dir, args...)
	if err != nil {
		return nil, nil, err
	}
	exports := ExportLookup{}
	byPath := map[string]*ListedPackage{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		byPath[p.ImportPath] = p
	}

	// Pick the units to analyze. For a package p with test files,
	// `go list -test` emits "p [p.test]" (p augmented with in-package
	// test files) and "p_test [p.test]" (the external test package);
	// analyzing the augmented variant instead of plain p covers the
	// union of files exactly once.
	var units []*ListedPackage
	var failures []Failure
	hasAugmented := map[string]bool{}
	for _, p := range pkgs {
		if p.ForTest != "" && byPath[p.ForTest] != nil && p.Name == byPath[p.ForTest].Name {
			hasAugmented[p.ForTest] = true
		}
	}
	for _, p := range pkgs {
		switch {
		case p.Standard:
		case p.Error != nil:
			failures = append(failures, Failure{
				Path: p.ImportPath,
				Err:  fmt.Errorf("go list: %s", p.Error.Err),
			})
		case strings.HasSuffix(p.ImportPath, ".test"):
			// Synthesized test-main binary; nothing human-written.
		case p.ForTest != "":
			units = append(units, p)
		case hasAugmented[p.ImportPath]:
			// Covered by the augmented variant.
		default:
			units = append(units, p)
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i].ImportPath < units[j].ImportPath })

	fset := token.NewFileSet()
	var out []*Unit
	for _, p := range units {
		path := p.ImportPath
		if i := strings.Index(path, " ["); i >= 0 {
			path = path[:i] // strip the test-variant suffix
		}
		imp := gcImporter(fset, exports, p.ImportMap, nil)
		u, err := TypeCheck(fset, path, p.Dir, p.GoFiles, imp)
		if err != nil {
			failures = append(failures, Failure{Path: path, Err: err})
			continue
		}
		out = append(out, u)
	}
	return out, failures, nil
}
