// Package linttest runs lint analyzers over fixture packages, in the
// spirit of golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under testdata/src/<importpath>/ next to the analyzer
// package. Each fixture file marks the diagnostics it expects with a
// trailing comment on the offending line:
//
//	a := x == y // want "bare float64"
//
// Each quoted string is a regular expression that must match exactly
// one diagnostic reported on that line; diagnostics without a matching
// expectation (and expectations without a matching diagnostic) fail
// the test. Fixture imports resolve against sibling directories under
// testdata/src first ("repro/internal/sched" → stub packages) and the
// standard library otherwise.
package linttest

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// stdlib export data is shared across all Run calls in one process.
var (
	stdlibOnce sync.Once
	stdlib     lint.ExportLookup
	stdlibErr  error
)

func stdlibExports(t *testing.T) lint.ExportLookup {
	t.Helper()
	stdlibOnce.Do(func() {
		// The closure of these roots covers everything fixtures may
		// import from the standard library.
		stdlib, stdlibErr = lint.StdlibExports(".",
			"testing", "math/rand", "math/rand/v2", "time", "fmt", "errors", "os", "strconv")
	})
	if stdlibErr != nil {
		t.Fatalf("linttest: loading stdlib export data: %v", stdlibErr)
	}
	return stdlib
}

// fixtureImporter type-checks fixture packages from source, falling
// back to stdlib export data for everything else.
type fixtureImporter struct {
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory
	cache map[string]*lint.Unit
	std   types.ImporterFrom
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	return fi.ImportFrom(path, "", 0)
}

func (fi *fixtureImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := fi.dirs[path]; ok {
		u, err := fi.load(path)
		if err != nil {
			return nil, err
		}
		return u.Pkg, nil
	}
	return fi.std.ImportFrom(path, dir, mode)
}

func (fi *fixtureImporter) load(path string) (*lint.Unit, error) {
	if u, ok := fi.cache[path]; ok {
		return u, nil
	}
	dir := fi.dirs[path]
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	u, err := lint.TypeCheck(fi.fset, path, dir, names, fi)
	if err != nil {
		return nil, err
	}
	fi.cache[path] = u
	return u, nil
}

// Run loads the fixture package at testdata/src/<path>, applies the
// analyzer, and checks the diagnostics against the fixture's want
// comments. Fixture-local imports are type-checked but not analyzed.
func Run(t *testing.T, a *lint.Analyzer, path string) {
	t.Helper()
	srcRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	fi := &fixtureImporter{
		fset:  fset,
		dirs:  fixtureDirs(t, srcRoot),
		cache: map[string]*lint.Unit{},
	}
	fi.std = lint.NewGCImporter(fset, stdlibExports(t), nil)
	unit, err := fi.load(path)
	if err != nil {
		t.Fatalf("linttest: loading fixture %s: %v", path, err)
	}
	diags, err := unit.Run([]*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("linttest: running %s on %s: %v", a.Name, path, err)
	}
	checkWants(t, unit, diags)
}

// fixtureDirs maps import paths to directories: every directory under
// srcRoot containing .go files is importable by its relative path.
func fixtureDirs(t *testing.T, srcRoot string) map[string]string {
	t.Helper()
	dirs := map[string]string{}
	err := filepath.WalkDir(srcRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(srcRoot, dir)
		if err != nil {
			return err
		}
		dirs[filepath.ToSlash(rel)] = dir
		return nil
	})
	if err != nil {
		t.Fatalf("linttest: scanning %s: %v", srcRoot, err)
	}
	return dirs
}

// wantRE extracts the quoted expectations of a want comment.
var wantRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// checkWants compares diagnostics against the fixture's want comments.
func checkWants(t *testing.T, u *lint.Unit, diags []lint.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				k := key{file: pos.Filename, line: pos.Line}
				for _, q := range wantRE.FindAllString(text[idx+len("want "):], -1) {
					unq, err := strconv.Unquote(q)
					if err != nil {
						t.Errorf("%s:%d: bad want expectation %s: %v", pos.Filename, pos.Line, q, err)
						continue
					}
					re, err := regexp.Compile(unq)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, unq, err)
						continue
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	matched := map[*regexp.Regexp]bool{}
	for _, d := range diags {
		k := key{file: d.Pos.Filename, line: d.Pos.Line}
		found := false
		for _, re := range wants[k] {
			if !matched[re] && re.MatchString(d.Message) {
				matched[re] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	var keys []key
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, re := range wants[k] {
			if !matched[re] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}
