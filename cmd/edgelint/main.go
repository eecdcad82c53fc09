// Command edgelint is the repository's domain-specific static
// analysis driver. It runs the repro/internal/lint analyzers — the
// mechanical form of the invariants the paper reproduction depends on
// — over the given go package patterns (default ./...):
//
//	errflow     dropped errors from this module's exported APIs
//	floateq     bare float64 time/cost comparisons (use internal/fptime)
//	noalloc     allocating constructs reachable from edgelint:noalloc hot paths
//	seededrand  unseeded randomness and wall-clock time in libraries
//	verifysched test schedules that never pass through verify.Verify
//
// Packages are analyzed in dependency order and share one fact store,
// so marker facts and function summaries exported while analyzing a
// package are visible when its importers are analyzed: the analyzers
// see through package boundaries.
//
// Usage:
//
//	go run ./cmd/edgelint [-list] [-json] [-only name,name] [patterns...]
//
// Diagnostics print as file:line:col: message (analyzer), ordered by
// file, line, column, analyzer; -json emits the same findings as a
// JSON array of {file,line,col,analyzer,message} objects. A finding on
// a given line can be suppressed, with justification, by
//
//	// edgelint:ignore <analyzer> — <reason>
//
// on the offending line or the line above. Exits 1 if any diagnostic
// is reported, 2 on driver errors, and 3 when one or more packages
// could not be analyzed (load or type-check failure, analyzer panic) —
// a partial run must not read as a clean pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/errflow"
	"repro/internal/lint/floateq"
	"repro/internal/lint/noalloc"
	"repro/internal/lint/seededrand"
	"repro/internal/lint/verifysched"
)

// all is the suite, alphabetically.
var all = []*lint.Analyzer{
	errflow.Analyzer,
	floateq.Analyzer,
	noalloc.Analyzer,
	seededrand.Analyzer,
	verifysched.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default all)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	flag.Parse()

	if *list {
		listAnalyzers(os.Stdout)
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgelint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, failures, err := runLint(".", patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgelint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "edgelint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "edgelint: failed to analyze", f.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "edgelint: %d finding(s)\n", len(diags))
	}
	os.Exit(exitCode(diags, failures))
}

// exitCode is the driver's verdict: 3 when any package could not be
// analyzed (even if the rest produced findings — a partial run is not
// a pass), 1 for findings, 0 for a clean full run.
func exitCode(diags []lint.Diagnostic, failures []lint.Failure) int {
	switch {
	case len(failures) > 0:
		return 3
	case len(diags) > 0:
		return 1
	}
	return 0
}

// listAnalyzers prints the registry, one analyzer per line.
func listAnalyzers(w io.Writer) {
	for _, a := range all {
		fmt.Fprintf(w, "%-12s %s\n", a.Name, a.Doc)
	}
}

// selectAnalyzers resolves the -only flag against the registry.
func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			names := make([]string, len(all))
			for i, a := range all {
				names[i] = a.Name
			}
			return nil, fmt.Errorf("unknown analyzer %q (valid: %s)",
				name, strings.Join(names, ", "))
		}
		picked = append(picked, a)
	}
	return picked, nil
}

// jsonDiag is the -json wire shape of one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits the diagnostics as an indented JSON array (an empty
// run prints [], not null, so consumers can range unconditionally).
func writeJSON(w io.Writer, diags []lint.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runLint loads the packages (with test files, like go vet) and applies
// the analyzers to every unit. Units arrive in dependency order from
// LoadPackages and share one fact store, so facts exported while
// analyzing a package are importable when its dependents run.
func runLint(dir string, patterns []string, analyzers []*lint.Analyzer) ([]lint.Diagnostic, []lint.Failure, error) {
	units, failures, err := lint.LoadPackages(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	facts := lint.NewFacts()
	var diags []lint.Diagnostic
	for _, u := range units {
		ds, err := u.RunWith(analyzers, facts)
		if err != nil {
			// An analyzer error (including a recovered panic) on one
			// unit fails that unit, not the whole run: the remaining
			// packages still get analyzed and the driver exits 3.
			failures = append(failures, lint.Failure{Path: u.Path, Err: err})
			continue
		}
		diags = append(diags, ds...)
	}
	sortDiagnostics(diags)
	return diags, failures, nil
}

// sortDiagnostics fixes the report order — file, line, column,
// analyzer — so output is deterministic and independent of the
// dependency order the units were analyzed in.
func sortDiagnostics(diags []lint.Diagnostic) {
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
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
