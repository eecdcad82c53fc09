package main

import (
	"encoding/json"
	"errors"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestRepoIsClean runs the whole suite over the repository itself: the
// tree must stay free of findings (modulo justified edgelint:ignore
// directives), the same gate CI enforces with `go run ./cmd/edgelint`.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module")
	}
	diags, failures, err := runLint("../..", []string{"./..."}, all)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Errorf("failed to analyze %s", f.String())
	}
	for _, d := range diags {
		t.Error(d.String())
	}
}

// TestListAnalyzers pins the -list output: every registered analyzer
// appears on its own line, name first, with its one-line doc, in
// alphabetical order.
func TestListAnalyzers(t *testing.T) {
	var b strings.Builder
	listAnalyzers(&b)
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines for %d analyzers:\n%s", len(lines), len(all), b.String())
	}
	if len(all) != 4 {
		t.Errorf("%d analyzers registered, want 4", len(all))
	}
	prev := ""
	for i, line := range lines {
		a := all[i]
		if !strings.HasPrefix(line, a.Name) {
			t.Errorf("line %d = %q, want it to start with %q", i, line, a.Name)
		}
		if !strings.Contains(line, a.Doc) {
			t.Errorf("line %d = %q does not include the doc %q", i, line, a.Doc)
		}
		if a.Name <= prev {
			t.Errorf("registry out of alphabetical order: %q after %q", a.Name, prev)
		}
		prev = a.Name
	}
	for _, name := range []string{"errflow", "floateq", "seededrand", "verifysched"} {
		if !strings.Contains(b.String(), name) {
			t.Errorf("-list output missing %s", name)
		}
	}
}

func TestSelectAnalyzers(t *testing.T) {
	picked, err := selectAnalyzers("floateq,errflow")
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 2 || picked[0].Name != "floateq" || picked[1].Name != "errflow" {
		t.Fatalf("picked %v", picked)
	}
	every, err := selectAnalyzers("")
	if err != nil || len(every) != len(all) {
		t.Fatalf("empty -only must select the full suite, got %d, %v", len(every), err)
	}
}

// TestSelectAnalyzersUnknown pins the rejection contract: an unknown
// name errors (the driver exits non-zero on it) and the message names
// every valid analyzer so the caller can fix the flag without -list.
func TestSelectAnalyzersUnknown(t *testing.T) {
	_, err := selectAnalyzers("nonsense")
	if err == nil {
		t.Fatal("unknown analyzer accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"nonsense"`) {
		t.Errorf("error %q does not name the offending analyzer", msg)
	}
	for _, a := range all {
		if !strings.Contains(msg, a.Name) {
			t.Errorf("error %q does not list valid analyzer %s", msg, a.Name)
		}
	}
}

// TestAnalyzerPanicIsFailure pins the driver-robustness contract: an
// analyzer that panics on some unit fails that unit (and only that
// unit) instead of crashing the process or silently passing — the
// remaining units are still analyzed and the run reports the failure.
func TestAnalyzerPanicIsFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks real packages")
	}
	boom := &lint.Analyzer{
		Name: "boom",
		Doc:  "synthetic analyzer that panics on every unit",
		Run:  func(pass *lint.Pass) error { panic("kaboom") },
	}
	diags, failures, err := runLint("../..", []string{"./internal/fptime"}, []*lint.Analyzer{boom})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("panicking analyzer produced diagnostics: %v", diags)
	}
	if len(failures) == 0 {
		t.Fatal("panicking analyzer reported no failure — the run would read as a clean pass")
	}
	for _, f := range failures {
		if !strings.Contains(f.String(), "panicked") || !strings.Contains(f.String(), "kaboom") {
			t.Errorf("failure %q does not describe the panic", f.String())
		}
	}
	if code := exitCode(diags, failures); code != 3 {
		t.Errorf("exit code %d for a run with failures, want 3", code)
	}
}

// TestBrokenPackageIsFailure pins the load half of the same contract:
// a package that does not type-check comes back as a Failure while the
// run goes on, rather than aborting with an error (which previously
// dropped all diagnostics) or being silently skipped.
func TestBrokenPackageIsFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module brokenmod\n\ngo 1.22\n")
	write("broken.go", "package brokenmod\n\nfunc f() int { return undefinedIdent }\n")
	diags, failures, err := runLint(dir, []string{"./..."}, all)
	if err != nil {
		t.Fatalf("broken package aborted the run: %v", err)
	}
	if len(failures) == 0 {
		t.Fatal("broken package produced no failure — it would read as a clean pass")
	}
	if code := exitCode(diags, failures); code != 3 {
		t.Errorf("exit code %d for a run with failures, want 3", code)
	}
}

// copyModule copies the module's Go sources and go.mod into a fresh
// temporary directory and returns its root, so a test can plant a bug
// in a copy and never in the checkout. Dot-directories and fixture
// testdata are left out; the copy builds and tests on its own.
func copyModule(t *testing.T) string {
	t.Helper()
	src, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	err = filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// catchRow is one seeded bug of the catch matrix: the exact text
// replacement in file that plants it, and the guard that must catch it.
// The guard is either an analyzer, which must report in pkg, or — when
// analyzer is empty — `go test -run run pkg`, with -race when race is
// set, which must fail.
type catchRow struct {
	bug       string
	file      string // module-relative
	old, new  string
	addImport string // an import path the new text needs, if any
	analyzer  string
	pkg       string
	run       string
	race      bool
}

// catchMatrix plants each bug class the scheduler's guards exist for and
// names the cheapest guard that catches it. It is the evidence that no
// analyzer is needed for the read-only inputs: every write to the
// graph or the topology below, which concurrent requests share, is
// caught by a test or by the race detector, and a write to a route,
// which only its scheduler state reads, by a test. It is also
// the evidence that probe transactions need no runtime guard: a
// scheduler store that bypasses its journaling mutator (a booking, a
// slack entry, a processor clock) is caught by the probe property
// test, and a reset that leaves the previous run's journal sizes or
// clocks by the state-reuse tests, and a state the one-shot pool or an
// engine slot takes back with the finished run's graph and columns, or
// from inside a transaction, by the release test. Two rows pin orders
// that no analyzer checks: selectByEFT's fold comparing bare floats,
// which the near-tie test sees, and the verifier walking processors in
// map order, which the report-order test sees. The link ledgers'
// mutations at their walks' positions have a row of their own: a
// cursor kept across the slab split an insert made; so does the
// bandwidth ledger's
// booking rate, whose over-booking no Validate sees: a booking at the
// cap whatever the link has left. Four rows plant a heap
// allocation on the serving path: a slot-list copy per optimal probe,
// which the ledger kernel table sees; a fresh backing array per BFS
// self-route and per Dijkstra route, which the router's allocation
// tests see; and a route copy per placed edge, which the engine
// allocation test sees as hundreds of allocations per request. The
// last rows give each of the floateq, seededrand, verifysched and
// errflow analyzers a bug it must catch. The schedule encoder's
// float memo has a row of its own: a hit that trusts the slot without
// comparing the float's bits prints another float's text. So do the
// route search's blocks: a block path that leaves dst's own block
// unmarked, and a block of two nodes with parallel links each way
// taken for a bridge, whose pairs then skip a search that had a choice.
// The BFS trees have two: Route answering a pair that has a choice from
// the tree, which the Dijkstra contract test sees, and a traversal that
// stops at its first processor, which the BFS reference sees. One row is
// benchdiff's own: a zero-alloc gate pin that lets one allocation
// through.
var catchMatrix = []catchRow{{
	bug:  "a priority order sorts the graph's stored topological order in place",
	file: "internal/dag/dag.go",
	old:  "\torder := slices.Clone(g.topo)\n",
	new:  "\torder := g.topo\n",
	pkg:  "./internal/dag", run: "^TestOrdersLeaveTopoOrder$",
}, {
	bug:  "selectByEstimate keeps the last of tied processors",
	file: "internal/sched/list.go",
	old:  "\t\tif fptime.LessEps(score, bestScore) {\n\t\t\tbestScore = score\n\t\t\tbest = p\n",
	new:  "\t\tif fptime.LessEps(score, bestScore) || score == bestScore {\n\t\t\tbestScore = score\n\t\t\tbest = p\n",
	pkg:  "./internal/sched", run: "^TestScheduleGoldens$",
}, {
	bug:  "findRoute swaps a BFS route's ends in place",
	file: "internal/sched/list.go",
	old:  "\t\treturn s.router.BFSRoute(src, dst)\n",
	new:  "\t\tr, err := s.router.BFSRoute(src, dst)\n\t\tif len(r) > 1 {\n\t\t\tr[0], r[len(r)-1] = r[len(r)-1], r[0]\n\t\t}\n\t\treturn r, err\n",
	pkg:  ".", run: "^TestFacadeEndToEnd$",
}, {
	bug:  "Router.DijkstraRoute writes the topology's links",
	file: "internal/network/router.go",
	old:  "\t\t\tnl := relax(t.links[h.Link], r.best[it.node])\n",
	new:  "\t\t\tt.links[h.Link] = t.links[h.Link]\n\t\t\tnl := relax(t.links[h.Link], r.best[it.node])\n",
	pkg:  "./internal/sched", run: "^TestEngineSharedInputsRace$", race: true,
}, {
	bug:  "Graph.Task writes the graph",
	file: "internal/dag/dag.go",
	old:  "func (g *Graph) Task(id TaskID) Task { return g.tasks[id] }",
	new:  "func (g *Graph) Task(id TaskID) Task {\n\tg.tasks[id] = g.tasks[id]\n\treturn g.tasks[id]\n}",
	pkg:  "./internal/sched", run: "^TestEngineSharedInputsRace$", race: true,
}, {
	bug:  "probe writes the graph through Tasks()",
	file: "internal/sched/eft.go",
	old:  "\ts.begin()\n\tdefer s.rollback()\n",
	new:  "\tts := s.g.Tasks()\n\tts[tid].Cost = ts[tid].Cost\n\ts.begin()\n\tdefer s.rollback()\n",
	pkg:  "./internal/sched", run: "^TestEngineSharedInputsRace$", race: true,
}, {
	bug:  "probe changes a task cost through Tasks()",
	file: "internal/sched/eft.go",
	old:  "\ts.begin()\n\tdefer s.rollback()\n",
	new:  "\tif proc == s.net.Processors()[0] {\n\t\tts := s.g.Tasks()\n\t\tts[tid].Cost += 1\n\t}\n\ts.begin()\n\tdefer s.rollback()\n",
	pkg:  "./internal/sched", run: "^(TestEngineMatchesColdRun|TestDeterminism)$",
}, {
	bug:  "selectByEFT's final fold compares bare floats",
	file: "internal/sched/eft.go",
	old:  "if fptime.LessEps(f, bestFinish) {",
	new:  "if f < bestFinish {",
	pkg:  "./internal/sched", run: "^TestProcessorChoiceBreaksNearTiesLow$",
}, {
	bug:  "verifyProcessorExclusivity walks processors in map order",
	file: "internal/verify/verify.go",
	old:  "\tfor proc, tps := range byProc {\n",
	new:  "\tbyNode := map[int][]sched.TaskPlacement{}\n\tfor proc, tps := range byProc {\n\t\tbyNode[proc] = tps\n\t}\n\tfor proc, tps := range byNode {\n",
	pkg:  "./internal/verify", run: "^TestViolationsInIDOrder$",
}, {
	bug:  "linkTL drops the stale journal copy's buffers",
	file: "internal/sched/txn.go",
	old:  "\t\told := tx.tlSnaps.stale(int(id))\n",
	new:  "\t\told := linksched.Timeline{}\n",
	pkg:  "./internal/sched", run: "^TestProbeJournalingIsAllocationFree$",
}, {
	bug:  "placeEdgeBandwidth books through s.bw, bypassing linkBW",
	file: "internal/sched/list.go",
	old:  "out = s.linkBW(lid).AppendAlloc(out, base, e.Cost, link.Speed, 0)",
	new:  "out = s.bw[lid].AppendAlloc(out, base, e.Cost, link.Speed, 0)",
	pkg:  "./internal/sched", run: "^TestClonePlacementEqualsTxnProbe$",
}, {
	bug:  "placeTask stores the processor clock without setProcFinish",
	file: "internal/sched/list.go",
	old:  "\t\ts.setProcFinish(proc, finish)\n",
	new:  "\t\ts.procFinish[proc] = finish\n",
	pkg:  "./internal/sched", run: "^TestClonePlacementEqualsTxnProbe$",
}, {
	bug:  "storeSlack writes the slack column through s.tl, bypassing linkTL",
	file: "internal/sched/list.go",
	old:  "s.linkTL(lid).SetSlack(o, s.edges.leg(eid, leg).start, s.slackOf(o))",
	new:  "s.tl[lid].SetSlack(o, s.edges.leg(eid, leg).start, s.slackOf(o))",
	pkg:  "./internal/sched", run: "^TestClonePlacementEqualsTxnProbe$",
}, {
	bug:  "reset leaves the journals sized for the previous run",
	file: "internal/sched/list.go",
	old:  "\tif s.txFree != nil {\n\t\ts.sizeJournals(s.txFree)\n\t}\n",
	new:  "",
	pkg:  "./internal/sched", run: "^TestResetForNoResidue$",
}, {
	bug:  "reset keeps the previous run's processor clocks",
	file: "internal/sched/list.go",
	old:  "\tclear(s.procFinish)\n",
	new:  "",
	pkg:  "./internal/sched", run: "^TestEngineMatchesColdRun$",
}, {
	bug:  "a released state keeps its graph, tasks and dups",
	file: "internal/sched/list.go",
	old:  "\ts.g, s.tasks, s.dups = nil, nil, nil\n\treturn true\n",
	new:  "\treturn true\n",
	pkg:  "./internal/sched", run: "^TestReleaseDropsRunAndTransaction$",
}, {
	bug:  "a state left inside a transaction goes back to the pool",
	file: "internal/sched/list.go",
	old:  "\tif s.tx != nil {\n\t\treturn false\n\t}\n",
	new:  "",
	pkg:  "./internal/sched", run: "^TestReleaseDropsRunAndTransaction$",
}, {
	bug:  "the accumulation re-fold stops before the inserted slot",
	file: "internal/linksched/timeline.go",
	old:  "foldSlots, growSlots), 1)",
	new:  "foldSlots, growSlots), 0)",
	pkg:  "./internal/linksched", run: "^FuzzTimelineDifferential$",
}, {
	bug:  "the slab skip drops its rounding margin",
	file: "internal/linksched/timeline.go",
	old:  "skipBelow := dur - (Eps + marginStep*2*slabBlock)",
	new:  "skipBelow := dur",
	pkg:  "./internal/linksched", run: "^TestSlabSkipKeepsTheEpsMargin$",
}, {
	bug:  "the O(1) insert update keeps a split gap as the slab's maximum",
	file: "internal/linksched/timeline.go",
	old:  "if i > 0 && i+1 < len(es) && es[i+1].Start-es[i-1].End == sum.gap {",
	new:  "if false {",
	pkg:  "./internal/linksched", run: "^FuzzTimelineDifferential$",
}, {
	bug:  "AppendAlloc keeps a cursor across a slab split",
	file: "internal/linksched/bandwidth.go",
	old:  "\treturn t.st.insert(c, left, hoppable, nil)\n",
	new:  "\tt.st.insert(c, left, hoppable, nil)\n\treturn c\n",
	pkg:  "./internal/linksched", run: "^FuzzBWTimelineDifferential$",
}, {
	bug:  "alloc books its cap, not the remaining bandwidth",
	file: "internal/linksched/bandwidth.go",
	old:  "\t\trate := math.Min(avail, cap)\n",
	new:  "\t\trate, _ := cap, avail\n",
	pkg:  "./internal/linksched", run: "^FuzzBWTimelineDifferential$",
}, {
	bug:  "deferral cascade refreshes only the slab it started in",
	file: "internal/linksched/timeline.go",
	old:  "\t\tif i > c.i {\n\t\t\tt.st.refresh(c.s, foldSlots)\n",
	new:  "\t\tif i > c.i && c == w.best {\n\t\t\tt.st.refresh(c.s, foldSlots)\n",
	pkg:  "./internal/linksched", run: "^TestDeferralCascadeCrossesSlabs$",
}, {
	bug:  "slab split leaves the right half in the left slab's array",
	file: "internal/linksched/slab.go",
	old:  "\tright.items = fullArray(right.items)[:slabBlock]\n\tcopy(right.items, left.items[slabBlock:])\n",
	new:  "\tright.items = left.items[slabBlock:]\n",
	pkg:  "./internal/linksched", run: "^TestSlabSplitKeepsHalvesApart$",
}, {
	bug:  "slab store copyFrom aliases the source's slab arrays",
	file: "internal/linksched/slab.go",
	old:  "\t\tst.slabs[k].items = append(st.slabs[k].items[:0], src.slabs[k].items...)\n",
	new:  "\t\tst.slabs[k].items = src.slabs[k].items\n",
	pkg:  "./internal/linksched", run: "^TestLedgerCopyIndependence$",
}, {
	bug:  "Route answers a pair the block path does not force from the BFS tree",
	file: "internal/network/router.go",
	old:  "\tif r.begin(src, dst) {\n\t\treturn r.BFSRoute(src, dst)\n\t}\n",
	new:  "\tif r.begin(src, dst) || r.tree[src] >= 0 {\n\t\treturn r.BFSRoute(src, dst)\n\t}\n",
	pkg:  "./internal/network", run: "^TestDijkstraRoutesAreNeverCached$",
}, {
	bug:  "grow stops at the first destination it reaches",
	file: "internal/network/router.go",
	old:  "\t\t\tprev[h.To] = hop{Link: h.Link, To: u}\n\t\t\tqueue = append(queue, h.To)\n",
	new:  "\t\t\tprev[h.To] = hop{Link: h.Link, To: u}\n\t\t\tif r.top.nodes[h.To].Kind == Processor {\n\t\t\t\tr.tree[src] = off\n\t\t\t\treturn off\n\t\t\t}\n\t\t\tqueue = append(queue, h.To)\n",
	pkg:  "./internal/network", run: "^TestRouterMatchesTopologyBFS$",
}, {
	bug:  "the block path stops one block short of dst",
	file: "internal/network/blocks.go",
	old:  "\tforced := true\n\tfor src != dst {\n",
	new:  "\tforced := true\n\tif b := bt.up[dst]; b >= 0 && src != dst {\n\t\tdst = NodeID(bt.blocks[b].head)\n\t}\n\tfor src != dst {\n",
	pkg:  "./internal/network", run: "^FuzzDijkstraRoute$",
}, {
	bug:  "a two-node block with two links each way counts as a bridge",
	file: "internal/network/blocks.go",
	old:  "fwd[b] <= 1 && bwd[b] <= 1",
	new:  "fwd[b] <= 2 && bwd[b] <= 2",
	pkg:  "./internal/network", run: "^TestForcedPairsHaveOneSimpleRoute$",
}, {
	bug:  "benchdiff lets a zero-alloc baseline rise to one alloc/op",
	file: "cmd/benchdiff/main.go",
	old:  "case o.AllocsPerOp == 0 && n.AllocsPerOp > 0:",
	new:  "case o.AllocsPerOp == 0 && n.AllocsPerOp > 1:",
	pkg:  "./cmd/benchdiff", run: "^TestGateViolationsAllocs$",
}, {
	bug:  "the float memo hits on the slot without comparing bits",
	file: "internal/trace/json.go",
	old:  "if m.n > 0 && m.bits == bits {",
	new:  "if m.n > 0 {",
	pkg:  "./internal/trace", run: "^(TestAppendScheduleJSONMatchesReference|TestAppendScheduleJSONMemo)$",
}, {
	bug:  "Timeline.ProbeOptimal copies the slot list for a consistency check",
	file: "internal/linksched/timeline.go",
	old:  "\tw := t.walkOptimal(lb, req.Dur, slack)\n",
	new:  "\tif len(t.Slots()) != t.st.n {\n\t\tpanic(\"linksched: slot count drift\")\n\t}\n\tw := t.walkOptimal(lb, req.Dur, slack)\n",
	pkg:  "./internal/linksched", run: "^TestInsertOptimalIsAllocationFree$",
}, {
	bug:  "Router.BFSRoute gives a self-route its own backing array",
	file: "internal/network/router.go",
	old:  "\tif src == dst {\n\t\treturn Route{}, nil\n\t}\n",
	new:  "\tif src == dst {\n\t\treturn make(Route, 0, 1), nil\n\t}\n",
	pkg:  "./internal/network", run: "^TestBFSRouteIsAllocationFree$",
}, {
	bug:  "DijkstraRoute unwinds into a fresh slice",
	file: "internal/network/router.go",
	old:  "return fillRoute(r.path[:k:k], prev, dst)",
	new:  "return fillRoute(make(Route, k), prev, dst)",
	pkg:  "./internal/network", run: "^TestDijkstraRouteIsAllocationFree$",
}, {
	bug:  "placeEdge copies the route before recording it",
	file: "internal/sched/txn.go",
	old:  "\tst := &s.edges\n\tro := int32(len(st.routes))\n",
	new:  "\troute = append(network.Route(nil), route...)\n\tst := &s.edges\n\tro := int32(len(st.routes))\n",
	pkg:  "./internal/sched", run: "^TestEngineSteadyStateAllocs$",
}, {
	bug:       "edgesim dag seeds its generator from the clock",
	file:      "cmd/edgesim/inspect.go",
	old:       "\tr := rand.New(rand.NewSource(*seed))\n\tvar g *dag.Graph\n",
	new:       "\tr := rand.New(rand.NewSource(*seed + time.Now().UnixNano()))\n\tvar g *dag.Graph\n",
	addImport: "time",
	analyzer:  "seededrand", pkg: "./cmd/edgesim",
}, {
	bug:      "edgesim dag drops the DOT writer's error",
	file:     "cmd/edgesim/inspect.go",
	old:      "\t\treturn trace.WriteDAGDOT(w, g)\n",
	new:      "\t\ttrace.WriteDAGDOT(w, g)\n\t\treturn nil\n",
	analyzer: "errflow", pkg: "./cmd/edgesim",
}, {
	bug:      "tryDuplicate compares finish and arrival with a bare >=",
	file:     "internal/sched/list.go",
	old:      "if fptime.GeqEps(dupFinish, estArrival) {",
	new:      "if dupFinish >= estArrival {",
	analyzer: "floateq", pkg: "./internal/sched",
}, {
	bug:      "a sched test schedules without verifying",
	file:     "internal/sched/sched_test.go",
	old:      "\t\tif res := verify.Verify(s); !res.OK() {\n\t\t\tt.Fatalf(\"invalid: %v\", res.Err())\n\t\t}\n\t\treturn s\n",
	new:      "\t\treturn s\n",
	analyzer: "verifysched", pkg: "./internal/sched",
}}

// TestCatchMatrix plants every catchMatrix bug, one at a time, in a copy
// of the module and requires its guard to catch it. A row whose old text
// no longer occurs exactly once fails, so the matrix cannot go stale
// silently when the code it mutates moves on.
func TestCatchMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests one mutant of the module per row")
	}
	dir := copyModule(t)
	for _, row := range catchMatrix {
		t.Run(row.bug, func(t *testing.T) {
			path := filepath.Join(dir, filepath.FromSlash(row.file))
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(orig), row.old); n != 1 {
				t.Fatalf("%s contains the seed's old text %d times, want once — update the row:\n%s", row.file, n, row.old)
			}
			mutant := strings.Replace(string(orig), row.old, row.new, 1)
			if row.addImport != "" {
				mutant = strings.Replace(mutant, "import (\n", "import (\n\t\""+row.addImport+"\"\n", 1)
			}
			if err := os.WriteFile(path, []byte(mutant), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			}()
			if row.analyzer != "" {
				catchByAnalyzer(t, dir, row)
			} else {
				catchByTest(t, dir, row)
			}
		})
	}
}

// catchByAnalyzer requires row.analyzer to report at least one finding
// in row.pkg of the mutated module. The checkout is clean, so any
// finding is the seeded bug's.
func catchByAnalyzer(t *testing.T, dir string, row catchRow) {
	t.Helper()
	as, err := selectAnalyzers(row.analyzer)
	if err != nil {
		t.Fatal(err)
	}
	diags, failures, err := runLint(dir, []string{row.pkg}, as)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Fatalf("mutant does not type-check, so it proves nothing: %s", f.String())
	}
	if len(diags) == 0 {
		t.Fatalf("%s missed the seeded bug in %s", row.analyzer, row.pkg)
	}
}

// catchByTest requires `go test -run row.run row.pkg` to fail on the
// mutated module because a test failed — not because the mutant does not
// build, which would prove nothing.
func catchByTest(t *testing.T, dir string, row catchRow) {
	t.Helper()
	args := []string{"test", "-count=1", "-run", row.run}
	if row.race {
		args = append(args, "-race")
	}
	cmd := exec.Command("go", append(args, row.pkg)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	switch {
	case err == nil:
		t.Fatalf("go %s passed on the mutant: the seeded bug went uncaught\n%s", strings.Join(args, " "), out)
	case !strings.Contains(string(out), "--- FAIL: "):
		t.Fatalf("go %s failed without a failing test (build error?)\n%s", strings.Join(args, " "), out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "--- FAIL: ") {
			t.Log("caught by " + strings.TrimPrefix(line, "--- FAIL: "))
		}
	}
	if n := strings.Count(string(out), "WARNING: DATA RACE"); n > 0 {
		t.Logf("with %d data race report(s)", n)
	}
}

// TestExitCode pins the verdict precedence: failures dominate findings.
func TestExitCode(t *testing.T) {
	d := []lint.Diagnostic{{}}
	f := []lint.Failure{{Path: "p", Err: errFailed}}
	if got := exitCode(nil, nil); got != 0 {
		t.Errorf("clean run: exit %d, want 0", got)
	}
	if got := exitCode(d, nil); got != 1 {
		t.Errorf("findings only: exit %d, want 1", got)
	}
	if got := exitCode(nil, f); got != 3 {
		t.Errorf("failures only: exit %d, want 3", got)
	}
	if got := exitCode(d, f); got != 3 {
		t.Errorf("findings+failures: exit %d, want 3 (partial run is not a pass)", got)
	}
}

var errFailed = errors.New("failed")

// TestSortDiagnostics pins the deterministic report order: file, then
// line, then column, then analyzer.
func TestSortDiagnostics(t *testing.T) {
	mk := func(file string, line, col int, an string) lint.Diagnostic {
		return lint.Diagnostic{
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Analyzer: an,
		}
	}
	diags := []lint.Diagnostic{
		mk("b.go", 1, 1, "floateq"),
		mk("a.go", 2, 1, "seededrand"),
		mk("a.go", 2, 1, "errflow"),
		mk("a.go", 1, 9, "floateq"),
	}
	sortDiagnostics(diags)
	var got []string
	for _, d := range diags {
		got = append(got, d.Pos.Filename+":"+d.Analyzer)
	}
	want := []string{"a.go:floateq", "a.go:errflow", "a.go:seededrand", "b.go:floateq"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestWriteJSON checks the -json wire shape, including that an empty
// run encodes as [] rather than null.
func TestWriteJSON(t *testing.T) {
	var b strings.Builder
	diags := []lint.Diagnostic{{
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Analyzer: "floateq",
		Message:  "bare float comparison",
	}}
	if err := writeJSON(&b, diags); err != nil {
		t.Fatal(err)
	}
	var got []jsonDiag
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if len(got) != 1 || got[0] != (jsonDiag{"x.go", 3, 7, "floateq", "bare float comparison"}) {
		t.Fatalf("round-trip %+v", got)
	}

	b.Reset()
	if err := writeJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(b.String()); s != "[]" {
		t.Fatalf("empty run encodes as %q, want []", s)
	}
}
