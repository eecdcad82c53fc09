// Command benchdiff runs the repository benchmark suite, snapshots the
// results as BENCH_<n>.json, and reports the change against the
// previous snapshot so performance regressions show up as a reviewable
// diff instead of an anecdote.
//
// Usage:
//
//	benchdiff -run               # run the suite, write the next BENCH_<n>.json, compare
//	benchdiff -parse out.txt     # convert saved `go test -bench` output to the next snapshot
//	benchdiff -compare A.json B.json   # print the delta table between two snapshots
//	benchdiff -run -count 3 -bench 'Figure'   # narrower/faster run
//	benchdiff -check -count 3 -benchtime 5x   # CI gate vs the latest committed snapshot
//
// Snapshots aggregate `go test -bench . -benchmem -count N` samples per
// benchmark (mean and best ns/op, mean B/op and allocs/op). The delta
// table reports the percentage change of the mean ns/op and mean
// allocs/op; negative is faster/leaner. Changes within ±3% on ns/op is
// noise on most machines — read the direction of the whole table, not a
// single row.
//
// Snapshots record the host's CPU model, and -check reports the
// baseline's host beside this one with the ratio of an unchanged
// benchmark's time on each (hostReport), so a gate run on a host of
// another speed shows as one.
//
// The -check mode is the non-flaky smoke gate: it re-runs only the
// benchmarks named by -gate, compares their best-of-count ns/op (the
// min is far less noisy than the mean on shared CI machines) against
// the latest committed BENCH_<n>.json, and exits non-zero if any gated
// benchmark regressed by more than -max-regress percent. The threshold
// is deliberately generous — the gate exists to catch accidental
// algorithmic regressions (linear rescans, lost caches), not to police
// single-digit noise; the committed snapshot trail is the precise
// record.
//
// -check also gates allocs/op, which unlike wall time is deterministic:
// a gated benchmark whose baseline allocs/op is zero must stay at
// exactly zero (the zero-alloc pin — one allocation on a steady-state
// path is a real leak, not noise), and a nonzero baseline tolerates the
// same -max-regress percentage as ns/op.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Sample is the aggregated measurement of one benchmark.
type Sample struct {
	Samples     int     `json:"samples"`       // -count repetitions seen
	Iterations  int64   `json:"iterations"`    // b.N of the last repetition
	NsPerOp     float64 `json:"ns_per_op"`     // mean over repetitions
	MinNsPerOp  float64 `json:"min_ns_per_op"` // best repetition
	BytesPerOp  float64 `json:"bytes_per_op"`  // mean
	AllocsPerOp float64 `json:"allocs_per_op"` // mean
}

// Snapshot is the on-disk BENCH_<n>.json format.
type Snapshot struct {
	Created    string            `json:"created"`
	GoVersion  string            `json:"go_version"`
	CPU        string            `json:"cpu,omitempty"` // host CPU model; empty where unknown
	GOMAXPROCS int               `json:"gomaxprocs"`
	Command    string            `json:"command"`
	Benchmarks map[string]Sample `json:"benchmarks"`
}

func main() {
	var (
		run       = flag.Bool("run", false, "run the benchmark suite and snapshot the results")
		parse     = flag.String("parse", "", "parse saved `go test -bench` output from a file instead of running")
		compare   = flag.Bool("compare", false, "compare two snapshot files given as arguments")
		check     = flag.Bool("check", false, "gate: fail if a -gate benchmark regressed vs the latest snapshot")
		count     = flag.Int("count", 5, "benchmark repetitions (-run/-check)")
		bench     = flag.String("bench", ".", "benchmark selection regexp (-run)")
		benchTime = flag.String("benchtime", "", "go test -benchtime (-run/-check); empty uses the go default")
		gate      = flag.String("gate", defaultGate, "comma-separated benchmark names guarded by -check")
		maxPct    = flag.Float64("max-regress", 50, "percent min-ns/op regression -check tolerates")
		pkg       = flag.String("pkg", ".", "package to benchmark (-run/-check)")
		dir       = flag.String("dir", ".", "directory holding BENCH_<n>.json snapshots")
		timeOut   = flag.String("timeout", "60m", "go test timeout (-run/-check)")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two snapshot files"))
		}
		old, err := load(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cur, err := load(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		printDelta(os.Stdout, flag.Arg(0), flag.Arg(1), old, cur)
	case *parse != "":
		text, err := os.ReadFile(*parse)
		if err != nil {
			fatal(err)
		}
		snap := newSnapshot("parsed from " + *parse)
		snap.Benchmarks = parseBench(string(text))
		if len(snap.Benchmarks) == 0 {
			fatal(fmt.Errorf("no benchmark lines found in %s", *parse))
		}
		if err := saveAndCompare(*dir, snap); err != nil {
			fatal(err)
		}
	case *run:
		out, args, err := runBench(*bench, *count, *benchTime, *timeOut, *pkg)
		if err != nil {
			fatal(err)
		}
		snap := newSnapshot("go " + strings.Join(args, " "))
		snap.Benchmarks = parseBench(out)
		if len(snap.Benchmarks) == 0 {
			fatal(fmt.Errorf("benchmark run produced no parsable lines"))
		}
		if err := saveAndCompare(*dir, snap); err != nil {
			fatal(err)
		}
	case *check:
		if err := runCheck(*dir, *gate, *count, *benchTime, *timeOut, *pkg, *maxPct); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// defaultGate lists the benchmarks the -check gate guards: the four
// end-to-end scheduler presets, one-shot calls on pooled warm states,
// plus the large-graph EFT baseline (the macro paths every kernel
// change flows through) and the 10^4-job
// bandwidth sweep, whose tens of milliseconds per op make it
// regression-stable and which is exactly where a lost index or a
// reintroduced linear rescan in the BBSA ledger shows up first.
// The 10^4-processor EFT benchmark guards the wide-machine paths: the
// 2*10^4-link timeline columns reset per run and the lower-bound sweep
// over every processor. Single-digit-
// microsecond micro-benchmarks stay out of the ns/op gate — too noisy
// to time on a shared machine — but the 10^4-scale probe kernels are
// in for their allocs/op, which is deterministic: their baselines are
// zero and the gate pins them there (the ledger kernel table's claim,
// at 10^4 slots). BandwidthEstimateFinish/segs=10000 is one
// of them: at -benchtime 5x its ~2 µs probe times cold caches, and
// unchanged code read +13% to +86% against its baseline.
// BenchmarkEngineThroughput guards the serving path: its wall time is
// the engine's whole value proposition (64 schedules on slot-owned
// states with grown BFS trees), and its allocs/op pin the
// steady-state allocations per wave — a leak in state reset or a slot
// state rebuilt per request shows up here as a multiple, not a percent.
// BenchmarkScheduleLongLinks guards the paper's own kernels where they
// dominate: on 1.5-2k-entry link queues a lost slack column or a
// disabled slab hop costs OIHSA or BBSA a third of its time. Like every
// Schedule* benchmark it times one-shot calls, which run on a warm
// state from the one-shot pool after the first op, so its allocs/op
// count the returned Schedule and the pooled state's growth: a pool
// that stopped handing states back, or a store that allocated per
// split or per insert, multiplies them and breaks the allocs bound. The Dijkstra-routed presets
// (ScheduleOIHSA, ScheduleBBSA, ScheduleLongLinks/algo=OIHSA and
// algo=BBSA) are gated against a baseline taken since the route search
// stopped allocating a route per search (about 450 allocs/op for OIHSA
// on long links, down from 16k): the nonzero-baseline bound is
// relative, so only a baseline at the lower count keeps a fresh route
// per search from creeping back. The BBSA presets need the same once
// a snapshot is taken since the bandwidth ledger stopped allocating a
// use list and a chunk list per booking (ScheduleBBSA from about 8,000
// allocs/op to about 600); until then the sched package's
// TestBBSAAllocatesPerLedgerNotPerBooking holds the long-link count.
// BenchmarkEncodeScheduleJSON guards the ?full=1 reply encoder:
// at most a millisecond per op it is stable enough to time, and its
// zero allocs/op pin the encoder's point.
const defaultGate = "BenchmarkScheduleBA,BenchmarkScheduleBASinnen,BenchmarkScheduleBASinnenLarge," +
	"BenchmarkScheduleBASinnenManyProcs,BenchmarkScheduleOIHSA,BenchmarkScheduleBBSA," +
	"BenchmarkScheduleLongLinks/algo=BA,BenchmarkScheduleLongLinks/algo=OIHSA,BenchmarkScheduleLongLinks/algo=BBSA," +
	"BenchmarkBandwidthAllocForward/jobs=10000,BenchmarkBandwidthEstimateFinish/segs=10000@allocs,BenchmarkTimelineProbeBasic/slots=10000@allocs," +
	"BenchmarkEngineThroughput,BenchmarkEncodeScheduleJSON"

// runBench shells out to go test -bench and returns its stdout.
func runBench(bench string, count int, benchTime, timeOut, pkg string) (string, []string, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem",
		"-count", strconv.Itoa(count)}
	if benchTime != "" {
		args = append(args, "-benchtime", benchTime)
	}
	args = append(args, "-timeout", timeOut, pkg)
	fmt.Fprintln(os.Stderr, "benchdiff: go "+strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", args, fmt.Errorf("go test -bench: %w", err)
	}
	return string(out), args, nil
}

// runCheck re-runs the gated benchmarks and fails on any regression
// beyond maxPct versus the latest committed snapshot.
func runCheck(dir, gate string, count int, benchTime, timeOut, pkg string, maxPct float64) error {
	prev, err := latest(dir)
	if err != nil {
		return err
	}
	if prev == 0 {
		return fmt.Errorf("-check needs a committed BENCH_<n>.json baseline in %s", dir)
	}
	prevPath := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", prev))
	old, err := load(prevPath)
	if err != nil {
		return err
	}
	entries, err := splitGate(gate)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("-gate names no benchmarks")
	}
	cur := map[string]Sample{}
	for _, group := range gateGroups(append(entries, hostProbe)) {
		out, _, err := runBench(gatePattern(group), count, benchTime, timeOut, pkg)
		if err != nil {
			return err
		}
		for name, s := range parseBench(out) {
			cur[name] = s
		}
	}
	if len(cur) == 0 {
		return fmt.Errorf("gate run produced no parsable benchmark lines")
	}
	violations := gateViolations(old.Benchmarks, cur, entries, maxPct)
	for _, entry := range entries {
		name, _ := gateName(entry)
		o, inOld := old.Benchmarks[name]
		n, inCur := cur[name]
		switch {
		case !inOld:
			fmt.Printf("%-34s not in %s; skipped\n", name, prevPath)
		case !inCur:
			fmt.Printf("%-34s MISSING from gate run\n", name)
		default:
			fmt.Printf("%-34s min %14.0f -> %14.0f ns/op  %+6.1f%%  %6.0f -> %6.0f allocs/op\n",
				name, o.MinNsPerOp, n.MinNsPerOp, pct(o.MinNsPerOp, n.MinNsPerOp),
				o.AllocsPerOp, n.AllocsPerOp)
		}
	}
	fmt.Print(hostReport(old, cur))
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchdiff: REGRESSION "+v)
		}
		return fmt.Errorf("%d of %d gated benchmarks regressed beyond +%.0f%% vs %s",
			len(violations), len(entries), maxPct, prevPath)
	}
	fmt.Printf("benchdiff: %d gated benchmarks within +%.0f%% of %s\n", len(entries), maxPct, prevPath)
	return nil
}

// gateGroups buckets the gated names by nesting depth (number of "/"
// levels), shallow first. go test only *times* benchmarks whose full
// identifier is as deep as the -bench pattern — a flat benchmark under
// a two-level pattern runs once in sub-benchmark discovery mode and
// reports nothing — so whole-benchmark and sub-benchmark gates cannot
// share one `go test` invocation; runCheck runs one per depth group.
func gateGroups(names []string) [][]string {
	byDepth := map[int][]string{}
	maxDepth := 0
	for _, name := range names {
		d := strings.Count(name, "/")
		byDepth[d] = append(byDepth[d], name)
		if d > maxDepth {
			maxDepth = d
		}
	}
	var groups [][]string
	for d := 0; d <= maxDepth; d++ {
		if g := byDepth[d]; len(g) > 0 {
			groups = append(groups, g)
		}
	}
	return groups
}

// gatePattern builds the `go test -bench` selection for one depth
// group of gated names. go test splits a -bench pattern on "/" and
// applies one element per benchmark nesting level, so a gate name like
// "BenchmarkBandwidthAllocForward/jobs=10000" cannot be quoted into a
// single flat alternation — instead the names' components are
// alternated level by level. Within one group the cross product can at
// most run extra gated parents' sub-benchmarks, whose lines the gate
// comparison ignores.
func gatePattern(names []string) string {
	var levels [][]string
	for _, name := range names {
		name, _ = gateName(name)
		for l, part := range strings.Split(name, "/") {
			if l == len(levels) {
				levels = append(levels, nil)
			}
			q := regexp.QuoteMeta(part)
			dup := false
			for _, seen := range levels[l] {
				if seen == q {
					dup = true
					break
				}
			}
			if !dup {
				levels[l] = append(levels[l], q)
			}
		}
	}
	parts := make([]string, len(levels))
	for l, alts := range levels {
		parts[l] = "^(" + strings.Join(alts, "|") + ")$"
	}
	return strings.Join(parts, "/")
}

// gateName splits one -gate entry into the benchmark name and whether
// the entry is gated on allocs/op only. A "@allocs" suffix opts a
// benchmark out of the ns/op comparison: sub-microsecond kernels are
// too noisy to time at -benchtime 5x on a shared machine, but their
// allocation count is deterministic and worth pinning.
func gateName(entry string) (name string, allocsOnly bool) {
	return strings.CutSuffix(entry, "@allocs")
}

// splitGate parses the comma-separated gate list, dropping empties.
// Two entries naming one benchmark are an error: every plain entry is
// already gated on allocs/op, so a second entry adds no check, only a
// second report line and a second count of the same violation.
func splitGate(gate string) ([]string, error) {
	var names []string
	seen := map[string]bool{}
	for _, n := range strings.Split(gate, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		name, _ := gateName(n)
		if seen[name] {
			return nil, fmt.Errorf("-gate names %s twice", name)
		}
		seen[name] = true
		names = append(names, n)
	}
	return names, nil
}

// gateViolations compares the gated benchmarks' best-of-count ns/op
// and mean allocs/op between the baseline and the current run. A gated
// benchmark missing from the current run is a violation (the gate must
// not silently shrink); one missing from the baseline is skipped (it
// is new and has no reference yet). Allocation counts are
// deterministic, so a zero-alloc baseline is an exact pin: any
// allocation at all is a violation, with no percentage headroom.
func gateViolations(old, cur map[string]Sample, names []string, maxPct float64) []string {
	var out []string
	for _, entry := range names {
		name, allocsOnly := gateName(entry)
		o, inOld := old[name]
		if !inOld {
			continue
		}
		n, inCur := cur[name]
		if !inCur {
			out = append(out, fmt.Sprintf("%s: missing from gate run", name))
			continue
		}
		if d := pct(o.MinNsPerOp, n.MinNsPerOp); !allocsOnly && d > maxPct {
			out = append(out, fmt.Sprintf("%s: min ns/op %+.1f%% (%.0f -> %.0f, limit +%.0f%%)",
				name, d, o.MinNsPerOp, n.MinNsPerOp, maxPct))
		}
		switch {
		case o.AllocsPerOp == 0 && n.AllocsPerOp > 0:
			out = append(out, fmt.Sprintf("%s: allocs/op %.1f, baseline pinned at 0",
				name, n.AllocsPerOp))
		case o.AllocsPerOp > 0:
			if d := pct(o.AllocsPerOp, n.AllocsPerOp); d > maxPct {
				out = append(out, fmt.Sprintf("%s: allocs/op %+.1f%% (%.0f -> %.0f, limit +%.0f%%)",
					name, d, o.AllocsPerOp, n.AllocsPerOp, maxPct))
			}
		}
	}
	return out
}

// hostProbe is the benchmark -check times beside the gate to compare
// hosts: §6 instance generation, which no scheduler change touches, so
// its ratio to the baseline's value is the speed of this host against
// the baseline's, not a regression.
const hostProbe = "BenchmarkWorkloadGenerate"

// hostReport prints the baseline's host and this one, and hostProbe's
// mean ns/op on each with their ratio. A ratio far from 1 means the
// gate's wall-time comparisons ran on hosts of different speed: read
// every ns/op change in their light. It is a report only, not a bound.
func hostReport(old *Snapshot, cur map[string]Sample) string {
	name := func(cpu string) string {
		if cpu == "" {
			return "unknown CPU"
		}
		return cpu
	}
	line := fmt.Sprintf("host: baseline %s; this run %s", name(old.CPU), name(cpuModel()))
	o, inOld := old.Benchmarks[hostProbe]
	n, inCur := cur[hostProbe]
	if !inOld || !inCur || o.NsPerOp == 0 {
		return line + fmt.Sprintf("; %s not in both runs\n", hostProbe)
	}
	return line + fmt.Sprintf("; %s %.0f -> %.0f ns/op, ratio %.2f\n",
		hostProbe, o.NsPerOp, n.NsPerOp, n.NsPerOp/o.NsPerOp)
}

// cpuModel returns the host's CPU model name as /proc/cpuinfo reports
// it, or "" where that file does not exist or names none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	return parseCPUModel(string(data))
}

// parseCPUModel returns the first "model name" value of a cpuinfo text.
func parseCPUModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

func newSnapshot(command string) *Snapshot {
	return &Snapshot{
		Created:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Command:    command,
		Benchmarks: map[string]Sample{},
	}
}

// benchLine matches the head of one `go test -bench` result line, e.g.
//
//	BenchmarkFigure1-8   5   234567890 ns/op   123456 B/op   1234 allocs/op
//
// Custom metrics (b.ReportMetric) may appear between ns/op and the
// -benchmem columns, so bytes and allocs are extracted separately.
var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op`)
	bytesUnit  = regexp.MustCompile(`\s([\d.]+) B/op`)
	allocsUnit = regexp.MustCompile(`\s([\d.]+) allocs/op`)
)

// parseBench aggregates repeated benchmark lines (from -count N) into
// one Sample per benchmark name. The -<GOMAXPROCS> suffix is stripped
// so snapshots from differently sized machines stay comparable by name.
func parseBench(text string) map[string]Sample {
	type acc struct {
		n                  int
		iters              int64
		ns, minNs, b, alcs float64
	}
	accs := map[string]*acc{}
	for _, line := range strings.Split(text, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := m[1]
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		a := accs[name]
		if a == nil {
			a = &acc{minNs: ns}
			accs[name] = a
		}
		a.n++
		a.iters = iters
		a.ns += ns
		if ns < a.minNs {
			a.minNs = ns
		}
		if bm := bytesUnit.FindStringSubmatch(line); bm != nil {
			v, _ := strconv.ParseFloat(bm[1], 64)
			a.b += v
		}
		if am := allocsUnit.FindStringSubmatch(line); am != nil {
			v, _ := strconv.ParseFloat(am[1], 64)
			a.alcs += v
		}
	}
	out := map[string]Sample{}
	for name, a := range accs {
		n := float64(a.n)
		out[name] = Sample{
			Samples:     a.n,
			Iterations:  a.iters,
			NsPerOp:     a.ns / n,
			MinNsPerOp:  a.minNs,
			BytesPerOp:  a.b / n,
			AllocsPerOp: a.alcs / n,
		}
	}
	return out
}

// snapFile names the numbered snapshot files.
var snapFile = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// latest returns the highest snapshot index in dir (0 if none).
func latest(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	max := 0
	for _, e := range entries {
		if m := snapFile.FindStringSubmatch(e.Name()); m != nil {
			if n, _ := strconv.Atoi(m[1]); n > max {
				max = n
			}
		}
	}
	return max, nil
}

func load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// saveAndCompare writes the next BENCH_<n>.json and, when a previous
// snapshot exists, prints the delta table against it.
func saveAndCompare(dir string, snap *Snapshot) error {
	prev, err := latest(dir)
	if err != nil {
		return err
	}
	next := prev + 1
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next))
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(snap.Benchmarks))
	if prev == 0 {
		fmt.Println("no previous snapshot; nothing to compare")
		return nil
	}
	prevPath := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", prev))
	old, err := load(prevPath)
	if err != nil {
		return err
	}
	printDelta(os.Stdout, prevPath, path, old, snap)
	return nil
}

// printDelta renders the comparison table between two snapshots.
func printDelta(w io.Writer, oldName, newName string, old, cur *Snapshot) {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%s -> %s\n", oldName, newName)
	fmt.Fprintf(w, "%-34s %14s %14s %8s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "Δ%", "allocs/op", "Δ%")
	for _, name := range names {
		n := cur.Benchmarks[name]
		o, ok := old.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "%-34s %14s %14.0f %8s %12.0f %8s\n",
				name, "-", n.NsPerOp, "new", n.AllocsPerOp, "new")
			continue
		}
		fmt.Fprintf(w, "%-34s %14.0f %14.0f %+7.1f%% %12.0f %+7.1f%%\n",
			name, o.NsPerOp, n.NsPerOp, pct(o.NsPerOp, n.NsPerOp),
			n.AllocsPerOp, pct(o.AllocsPerOp, n.AllocsPerOp))
	}
	var removed []string
	for name := range old.Benchmarks {
		if _, ok := cur.Benchmarks[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(w, "%-34s removed\n", name)
	}
}

// pct is the percentage change from old to new; 0 when old is 0.
func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
