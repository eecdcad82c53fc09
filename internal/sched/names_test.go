package sched_test

import (
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestByName pins the name table: every accepted spelling, in any case,
// resolves to the algorithm whose Name() is the canonical one.
func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name, canonical string
	}{
		{"BA", "BA"},
		{"ba", "BA"},
		{"BA-EFT", "BA-EFT"},
		{"ba-eft", "BA-EFT"},
		{"BASinnen", "BA-EFT"},
		{"basinnen", "BA-EFT"},
		{"OIHSA", "OIHSA"},
		{"oihsa", "OIHSA"},
		{"BBSA", "BBSA"},
		{"bbsa", "BBSA"},
		{"Classic", "Classic"},
		{"classic", "Classic"},
		{"Classic+Replay", "Classic+Replay"},
		{"classic-replay", "Classic+Replay"},
		{"replay", "Classic+Replay"},
	} {
		a, err := sched.ByName(tc.name)
		if err != nil {
			t.Errorf("ByName(%q): %v", tc.name, err)
			continue
		}
		if a.Name() != tc.canonical {
			t.Errorf("ByName(%q).Name() = %q, want %q", tc.name, a.Name(), tc.canonical)
		}
	}
	for _, n := range sched.AlgorithmNames() {
		if a, err := sched.ByName(n); err != nil || a.Name() != n {
			t.Errorf("canonical name %q does not resolve to itself: %v", n, err)
		}
	}
}

// TestByNameUnknown pins that a name outside the table, including the
// DLS and CPOP baselines the library does not implement, is an error
// that lists every canonical name.
func TestByNameUnknown(t *testing.T) {
	for _, name := range []string{"nope", "dls", "CPOP"} {
		_, err := sched.ByName(name)
		if err == nil {
			t.Fatalf("unknown algorithm %q accepted", name)
		}
		for _, n := range sched.AlgorithmNames() {
			if !strings.Contains(err.Error(), n) {
				t.Errorf("error %q does not list %s", err, n)
			}
		}
	}
}
