package lint

import (
	"go/token"
	"reflect"
	"testing"
)

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		comment string
		want    []string
	}{
		{"// edgelint:ignore floateq — deliberate exact comparison", []string{"floateq"}},
		{"// edgelint:ignore floateq, errflow -- both justified here", []string{"floateq", "errflow"}},
		{"// edgelint:ignore all — generated file", []string{"all"}},
		{"// plain comment", nil},
		{"/* edgelint:ignore seededrand — block form */", []string{"seededrand"}},
		{"// edgelint:ignore noalloc,errflow — comma-joined multi-analyzer", []string{"noalloc", "errflow"}},
		{"// edgelint:ignore noalloc,errflow,floateq -- three at once", []string{"noalloc", "errflow", "floateq"}},
		{"// edgelint:ignore", nil},
		{"// edgelint:ignorenothing — different directive", nil},
	}
	for _, c := range cases {
		if got := parseIgnore(c.comment); !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseIgnore(%q) = %v, want %v", c.comment, got, c.want)
		}
	}
}

func TestDirective(t *testing.T) {
	cases := []struct {
		comment string
		name    string
		args    []string
		found   bool
	}{
		{"// edgelint:coldpath grow spill — rare growth", "coldpath", []string{"grow", "spill"}, true},
		{"// edgelint:noalloc — steady-state probe", "noalloc", nil, true},
		{"// edgelint:noalloc", "noalloc", nil, true},
		{"// edgelint:coldpath minFinish — rare growth", "coldpath", []string{"minFinish"}, true},
		{"// edgelint:coldpath — rare growth", "coldpath", nil, true},
		{"// edgelint:noallocX — boundary must hold", "noalloc", nil, false},
		{"// a plain comment mentioning edgelint", "noalloc", nil, false},
		{"/* edgelint:coldpath A,B — block, commas */", "coldpath", []string{"A", "B"}, true},
	}
	for _, c := range cases {
		args, found := Directive(c.comment, c.name)
		if found != c.found || !reflect.DeepEqual(args, c.args) {
			t.Errorf("Directive(%q, %q) = %v, %v; want %v, %v",
				c.comment, c.name, args, found, c.args, c.found)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Analyzer: "floateq",
		Message:  "bare comparison",
	}
	if got, want := d.String(), "x.go:3:7: bare comparison (floateq)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
