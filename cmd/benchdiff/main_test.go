package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const sampleOutput = `
goos: linux
goarch: amd64
pkg: repro
BenchmarkFigure1-8   	       2	 500000000 ns/op	20000000 B/op	  300000 allocs/op
BenchmarkFigure1-8   	       2	 520000000 ns/op	20000000 B/op	  300000 allocs/op
BenchmarkBFSRoute-8  	 1000000	      1050 ns/op	     512 B/op	      12 allocs/op
BenchmarkBFSRoute-8  	 1000000	       950 ns/op	     512 B/op	      12 allocs/op
BenchmarkAblationX   	      10	 100000000 ns/op	        26.00 improv_%	 4000000 B/op	   50000 allocs/op
PASS
ok  	repro	12.3s
`

func TestParseBenchAggregates(t *testing.T) {
	got := parseBench(sampleOutput)
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(got))
	}
	// Custom b.ReportMetric columns must not hide the -benchmem ones.
	abl := got["BenchmarkAblationX"]
	if abl.BytesPerOp != 4000000 || abl.AllocsPerOp != 50000 {
		t.Fatalf("custom-metric line parsed as %+v", abl)
	}
	fig, ok := got["BenchmarkFigure1"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", got)
	}
	if fig.Samples != 2 || math.Abs(fig.NsPerOp-510000000) > 1 {
		t.Fatalf("Figure1 sample %+v", fig)
	}
	if fig.MinNsPerOp != 500000000 {
		t.Fatalf("Figure1 min %v, want 5e8", fig.MinNsPerOp)
	}
	bfs := got["BenchmarkBFSRoute"]
	if math.Abs(bfs.NsPerOp-1000) > 1e-9 || bfs.AllocsPerOp != 12 || bfs.BytesPerOp != 512 {
		t.Fatalf("BFSRoute sample %+v", bfs)
	}
	if bfs.Iterations != 1000000 {
		t.Fatalf("BFSRoute iterations %d", bfs.Iterations)
	}
}

func TestParseBenchIgnoresNoise(t *testing.T) {
	if got := parseBench("PASS\nok repro 1s\n--- BENCH: x\n"); len(got) != 0 {
		t.Fatalf("parsed noise as benchmarks: %v", got)
	}
}

func TestPct(t *testing.T) {
	if got := pct(200, 100); got != -50 {
		t.Fatalf("pct(200,100)=%v", got)
	}
	if got := pct(0, 100); got != 0 {
		t.Fatalf("pct(0,100)=%v", got)
	}
}

func TestLatestSnapshotIndex(t *testing.T) {
	dir := t.TempDir()
	if n, err := latest(dir); err != nil || n != 0 {
		t.Fatalf("empty dir: n=%d err=%v", n, err)
	}
	for _, name := range []string{"BENCH_1.json", "BENCH_3.json", "BENCH_x.json", "other.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := latest(dir); err != nil || n != 3 {
		t.Fatalf("n=%d err=%v, want 3", n, err)
	}
}

func TestSaveAndCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := newSnapshot("test")
	snap.Benchmarks = parseBench(sampleOutput)
	if err := saveAndCompare(dir, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := load(filepath.Join(dir, "BENCH_1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Benchmarks) != 3 || loaded.Command != "test" {
		t.Fatalf("round trip lost data: %+v", loaded)
	}
	// A second snapshot bumps the index and compares cleanly.
	if err := saveAndCompare(dir, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_2.json")); err != nil {
		t.Fatal(err)
	}
}

func TestGateViolations(t *testing.T) {
	old := map[string]Sample{
		"BenchmarkA": {MinNsPerOp: 1000},
		"BenchmarkB": {MinNsPerOp: 2000},
		"BenchmarkC": {MinNsPerOp: 3000},
	}
	cur := map[string]Sample{
		"BenchmarkA": {MinNsPerOp: 1400}, // +40%: inside a 50% limit
		"BenchmarkB": {MinNsPerOp: 3100}, // +55%: regression
		// BenchmarkC missing from the gate run: violation
		"BenchmarkD": {MinNsPerOp: 99}, // new, no baseline: skipped
	}
	names := []string{"BenchmarkA", "BenchmarkB", "BenchmarkC", "BenchmarkD"}
	got := gateViolations(old, cur, names, 50)
	if len(got) != 2 {
		t.Fatalf("got %d violations %v, want 2", len(got), got)
	}
	// Improvements never trip the gate, whatever the magnitude.
	fast := map[string]Sample{"BenchmarkA": {MinNsPerOp: 10}}
	if v := gateViolations(old, fast, []string{"BenchmarkA"}, 50); len(v) != 0 {
		t.Fatalf("improvement flagged as regression: %v", v)
	}
}

func TestGateViolationsAllocs(t *testing.T) {
	old := map[string]Sample{
		"BenchmarkZero":  {MinNsPerOp: 1000, AllocsPerOp: 0},
		"BenchmarkSome":  {MinNsPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkSome2": {MinNsPerOp: 1000, AllocsPerOp: 100},
	}
	cur := map[string]Sample{
		// A zero-alloc baseline is an exact pin: even a fractional mean
		// (one alloc in some -count repetitions) is a violation.
		"BenchmarkZero":  {MinNsPerOp: 1000, AllocsPerOp: 0.2},
		"BenchmarkSome":  {MinNsPerOp: 1000, AllocsPerOp: 140}, // +40%: inside a 50% limit
		"BenchmarkSome2": {MinNsPerOp: 1000, AllocsPerOp: 160}, // +60%: regression
	}
	names := []string{"BenchmarkZero", "BenchmarkSome", "BenchmarkSome2"}
	got := gateViolations(old, cur, names, 50)
	if len(got) != 2 {
		t.Fatalf("got %d violations %v, want 2", len(got), got)
	}
	if !strings.Contains(got[0], "pinned at 0") {
		t.Errorf("zero-alloc violation %q does not name the pin", got[0])
	}
	// Exactly zero stays clean, and fewer allocs never trips.
	clean := map[string]Sample{
		"BenchmarkZero": {MinNsPerOp: 1000, AllocsPerOp: 0},
		"BenchmarkSome": {MinNsPerOp: 1000, AllocsPerOp: 10},
	}
	if v := gateViolations(old, clean, []string{"BenchmarkZero", "BenchmarkSome"}, 50); len(v) != 0 {
		t.Fatalf("clean allocs flagged: %v", v)
	}
	// A plain entry gates allocs/op itself: an allocs regression with
	// steady wall time is reported exactly once.
	leaky := map[string]Sample{"BenchmarkZero": {MinNsPerOp: 1000, AllocsPerOp: 3}}
	if v := gateViolations(old, leaky, []string{"BenchmarkZero"}, 50); len(v) != 1 {
		t.Fatalf("plain entry allocs regression: got %d violations %v, want 1", len(v), v)
	}
}

func TestGateAllocsOnlyEntries(t *testing.T) {
	if name, ok := gateName("BenchmarkX/slots=10@allocs"); name != "BenchmarkX/slots=10" || !ok {
		t.Fatalf("gateName = %q, %v", name, ok)
	}
	if name, ok := gateName("BenchmarkX"); name != "BenchmarkX" || ok {
		t.Fatalf("gateName = %q, %v", name, ok)
	}
	old := map[string]Sample{"BenchmarkMicro": {MinNsPerOp: 900, AllocsPerOp: 0}}
	// A 3x ns/op swing on an @allocs entry is ignored — sub-microsecond
	// kernels cannot be timed reliably at -benchtime 5x — but a single
	// allocation still trips the zero pin.
	noisy := map[string]Sample{"BenchmarkMicro": {MinNsPerOp: 2700, AllocsPerOp: 0}}
	if v := gateViolations(old, noisy, []string{"BenchmarkMicro@allocs"}, 50); len(v) != 0 {
		t.Fatalf("@allocs entry tripped the ns gate: %v", v)
	}
	leaky := map[string]Sample{"BenchmarkMicro": {MinNsPerOp: 900, AllocsPerOp: 1}}
	if v := gateViolations(old, leaky, []string{"BenchmarkMicro@allocs"}, 50); len(v) != 1 {
		t.Fatalf("@allocs entry missed the zero-alloc pin: %v", v)
	}
	// The suffix never leaks into the -bench pattern.
	if p := gatePattern([]string{"BenchmarkMicro@allocs"}); p != "^(BenchmarkMicro)$" {
		t.Fatalf("gatePattern = %q", p)
	}
}

func TestSplitGate(t *testing.T) {
	got, err := splitGate(" BenchmarkA, ,BenchmarkB,")
	if err != nil || len(got) != 2 || got[0] != "BenchmarkA" || got[1] != "BenchmarkB" {
		t.Fatalf("splitGate = %v, %v", got, err)
	}
	if got, err := splitGate(""); got != nil || err != nil {
		t.Fatalf("splitGate(empty) = %v, %v, want nil", got, err)
	}
	// A benchmark named twice, with or without @allocs, is rejected.
	for _, gate := range []string{
		"BenchmarkA,BenchmarkB,BenchmarkA",
		"BenchmarkA,BenchmarkA@allocs",
		"BenchmarkX/n=1@allocs, BenchmarkX/n=1@allocs",
	} {
		if got, err := splitGate(gate); err == nil {
			t.Errorf("splitGate(%q) = %v, want a duplicate error", gate, got)
		}
	}
}

func TestGateGroups(t *testing.T) {
	// Mixed-depth gates split by depth, shallow first: go test only
	// times benchmarks as deep as the pattern, so a flat gate under a
	// two-level pattern would run in discovery mode and report nothing.
	groups := gateGroups([]string{
		"BenchmarkA",
		"BenchmarkSub/jobs=10000",
		"BenchmarkB",
		"BenchmarkSub2/segs=500",
	})
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2: %v", len(groups), groups)
	}
	if got := strings.Join(groups[0], ","); got != "BenchmarkA,BenchmarkB" {
		t.Errorf("depth-0 group %q", got)
	}
	if got := strings.Join(groups[1], ","); got != "BenchmarkSub/jobs=10000,BenchmarkSub2/segs=500" {
		t.Errorf("depth-1 group %q", got)
	}
	// Uniform depth stays a single group.
	if g := gateGroups([]string{"BenchmarkA", "BenchmarkB"}); len(g) != 1 {
		t.Errorf("flat names split into %d groups", len(g))
	}
}

func TestGatePattern(t *testing.T) {
	// Flat names collapse to the single-level alternation.
	flat := gatePattern([]string{"BenchmarkA", "BenchmarkB"})
	if flat != "^(BenchmarkA|BenchmarkB)$" {
		t.Fatalf("flat pattern %q", flat)
	}
	// Sub-benchmark names contribute one alternation per "/" level —
	// never a "/" inside a quoted name, which go test would split.
	subs := gatePattern([]string{
		"BenchmarkSub/jobs=10000",
		"BenchmarkSub2/jobs=10000",
		"BenchmarkSub2/segs=500",
	})
	want := `^(BenchmarkSub|BenchmarkSub2)$/^(jobs=10000|segs=500)$`
	if subs != want {
		t.Fatalf("sub-benchmark pattern %q, want %q", subs, want)
	}
	// The per-level regexps must actually match the components.
	lvl0 := strings.Split(subs, "/")[0]
	for _, name := range []string{"BenchmarkSub", "BenchmarkSub2"} {
		ok, err := regexp.MatchString(lvl0, name)
		if err != nil || !ok {
			t.Fatalf("level-0 pattern %q does not match %q (err %v)", lvl0, name, err)
		}
	}
}

func TestDefaultGateNamesExistInSuite(t *testing.T) {
	// The default gate must name real benchmarks: every entry has to
	// appear in the repository bench suite, or the gate silently skips.
	// Sub-benchmark entries check the parent declaration plus the
	// b.Run name prefix (sub names are produced via fmt.Sprintf).
	data, err := os.ReadFile(filepath.Join("..", "..", "bench_test.go"))
	if err != nil {
		t.Skipf("bench suite not readable: %v", err)
	}
	entries, err := splitGate(defaultGate)
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range entries {
		name, _ := gateName(entry)
		parts := strings.SplitN(name, "/", 2)
		decl := "func " + parts[0] + "(b *testing.B)"
		if !strings.Contains(string(data), decl) {
			t.Errorf("default gate names %s, but %q not found in bench_test.go", name, decl)
		}
		if len(parts) == 2 {
			prefix, _, ok := strings.Cut(parts[1], "=")
			if !ok {
				t.Errorf("gate sub-benchmark %s has no key=value form", name)
				continue
			}
			if !strings.Contains(string(data), `"`+prefix+`=`) {
				t.Errorf("default gate names %s, but no b.Run name %q in bench_test.go", name, prefix+"=…")
			}
		}
	}
}

func TestParseCPUModel(t *testing.T) {
	info := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) CPU @ 2.20GHz\n\nprocessor\t: 1\nmodel name\t: other\n"
	if got := parseCPUModel(info); got != "Intel(R) Xeon(R) CPU @ 2.20GHz" {
		t.Fatalf("parseCPUModel = %q", got)
	}
	if got := parseCPUModel("processor\t: 0\n"); got != "" {
		t.Fatalf("parseCPUModel without a model name = %q, want empty", got)
	}
}

// TestHostReport pins the -check host line: both hosts, and the host
// probe's baseline and current mean ns/op with their ratio, or a note
// when either run lacks the probe.
func TestHostReport(t *testing.T) {
	old := &Snapshot{CPU: "Old CPU", Benchmarks: map[string]Sample{hostProbe: {NsPerOp: 250000}}}
	got := hostReport(old, map[string]Sample{hostProbe: {NsPerOp: 500000}})
	for _, want := range []string{"baseline Old CPU", "250000 -> 500000 ns/op, ratio 2.00"} {
		if !strings.Contains(got, want) {
			t.Errorf("hostReport = %q, want it to contain %q", got, want)
		}
	}
	got = hostReport(&Snapshot{}, map[string]Sample{})
	for _, want := range []string{"baseline unknown CPU", hostProbe + " not in both runs"} {
		if !strings.Contains(got, want) {
			t.Errorf("hostReport = %q, want it to contain %q", got, want)
		}
	}
}

// TestPrintDeltaSortsRemoved pins that benchmarks gone from the new
// snapshot print in name order, like the rest of the delta table.
func TestPrintDeltaSortsRemoved(t *testing.T) {
	old := &Snapshot{Benchmarks: map[string]Sample{}}
	for _, name := range []string{"BenchmarkH", "BenchmarkC", "BenchmarkF", "BenchmarkA", "BenchmarkG", "BenchmarkB", "BenchmarkE", "BenchmarkD"} {
		old.Benchmarks[name] = Sample{NsPerOp: 1}
	}
	var b strings.Builder
	printDelta(&b, "old", "new", old, &Snapshot{Benchmarks: map[string]Sample{}})
	var removed []string
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == "removed" {
			removed = append(removed, f[0])
		}
	}
	if len(removed) != len(old.Benchmarks) || !sort.StringsAreSorted(removed) {
		t.Fatalf("removed lines %v, want all %d in name order", removed, len(old.Benchmarks))
	}
}
