// End-to-end tests for the long-lived scheduling engine, in the
// external test package so every schedule can run through the full
// validator (verify imports sched, so the in-package tests cannot).
//
// The contract under test is the engine's whole reason to exist:
// sharing one topology and reusing slot-owned scheduler states, with
// their routers' BFS trees, across concurrent requests must change
// THROUGHPUT ONLY — every
// schedule stays bit-identical to a fresh-state run of the same
// algorithm on the same inputs.
package sched_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/verify"
	"repro/internal/workload"
)

// enginePresets are the named algorithms the engine must serve
// faithfully, including the expensive tentative-EFT baseline.
func enginePresets() map[string]*sched.ListScheduler {
	return map[string]*sched.ListScheduler{
		"BA":     sched.NewBA(),
		"BA-EFT": sched.NewBASinnen(),
		"OIHSA":  sched.NewOIHSA(),
		"BBSA":   sched.NewBBSA(),
	}
}

// engineGraph builds the i'th distinct request DAG: sizes, shapes and
// costs vary with i so consecutive requests on one slot never share a
// shape.
func engineGraph(i int) *dag.Graph {
	r := rand.New(rand.NewSource(int64(1000 + i)))
	return dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    10 + (i*7)%30,
		TaskCost: dag.CostDist{Lo: 1, Hi: 40 + i%20},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 150 + (i*13)%100},
	})
}

func engineTopology() *network.Topology {
	return network.Star(6, network.Uniform(1), network.Uniform(1))
}

// coldRun schedules g as a one-shot scheduler would, but on a fresh
// state whose router holds no BFS tree rather than a pooled one.
func coldRun(t *testing.T, name string, opts sched.Options, g *dag.Graph, net *network.Topology) *sched.Schedule {
	t.Helper()
	s, err := sched.FreshSchedule(sched.NewCustom(name, opts), g, net)
	if err != nil {
		t.Fatalf("cold %s: %v", name, err)
	}
	return s
}

// mustVerify runs the full validator on a schedule.
func mustVerify(t *testing.T, s *sched.Schedule) {
	t.Helper()
	if res := verify.Verify(s); !res.OK() {
		t.Fatalf("invalid schedule: %v", res)
	}
}

// TestEngineMatchesColdRun drives every preset through a warmed engine
// — twice per graph, so the second pass runs entirely on reused states
// — and demands bit-identical agreement with fresh-state runs.
func TestEngineMatchesColdRun(t *testing.T) {
	for name, ls := range enginePresets() {
		name, ls := name, ls
		t.Run(name, func(t *testing.T) {
			net := engineTopology()
			eng, err := sched.NewEngine(net, sched.EngineOptions{
				Name: name, Opts: ls.Opts, SelfCheckEvery: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Drain()
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < 6; i++ {
					g := engineGraph(i)
					got, err := eng.Schedule(g)
					if err != nil {
						t.Fatalf("pass %d graph %d: %v", pass, i, err)
					}
					mustVerify(t, got)
					want := coldRun(t, name, ls.Opts, g, net)
					if d := sched.DiffSchedules(want, got); d != "" {
						t.Fatalf("pass %d graph %d diverged from cold run: %s", pass, i, d)
					}
				}
			}
			st := eng.Stats()
			if st.Requests != 12 || st.Failures != 0 {
				t.Fatalf("stats: %+v", st)
			}
			if st.SelfChecks == 0 {
				t.Fatal("self-check oracle never ran")
			}
		})
	}
}

// TestEngineConcurrentStress is the shared-topology race pin: 32
// goroutines schedule distinct DAGs against ONE topology on 8 worker
// slots. Under -race this proves the slots share only immutable
// inputs — the topology and the options; each router is its slot's
// own — and the per-result checks prove concurrency changed
// nothing: every schedule verifies and is bit-identical to its cold
// sequential run.
func TestEngineConcurrentStress(t *testing.T) {
	const goroutines = 32
	net := engineTopology()
	opts := sched.NewBASinnen().Opts // tentative EFT: heaviest route traffic
	eng, err := sched.NewEngine(net, sched.EngineOptions{
		Name: "BA-EFT", Opts: opts, MaxConcurrent: 8, SelfCheckEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Drain()

	got := make([]*sched.Schedule, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = eng.Schedule(engineGraph(i))
		}(i)
	}
	wg.Wait()

	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		mustVerify(t, got[i])
		want := coldRun(t, "BA-EFT", opts, engineGraph(i), net)
		if d := sched.DiffSchedules(want, got[i]); d != "" {
			t.Fatalf("request %d diverged from cold run: %s", i, d)
		}
	}
	if st := eng.Stats(); st.Requests != goroutines || st.Failures != 0 || st.InFlight != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestEngineDrain pins the lifecycle: Drain waits for in-flight work,
// then every later request fails with ErrEngineClosed.
func TestEngineDrain(t *testing.T) {
	net := engineTopology()
	eng, err := sched.NewEngine(net, sched.EngineOptions{
		Name: "BA", Opts: sched.NewBA().Opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	const inflight = 4
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			s, err := eng.Schedule(engineGraph(i))
			if err == nil {
				if res := verify.Verify(s); !res.OK() {
					err = fmt.Errorf("invalid schedule: %v", res)
				}
			}
			results <- err
		}(i)
	}
	eng.Drain()
	// Drain returned: the admitted subset has fully finished. Requests
	// that lost the admission race fail cleanly instead of hanging.
	for i := 0; i < inflight; i++ {
		if err := <-results; err != nil && !errors.Is(err, sched.ErrEngineClosed) {
			t.Fatalf("in-flight request: %v", err)
		}
	}
	if _, err := eng.Schedule(engineGraph(0)); !errors.Is(err, sched.ErrEngineClosed) {
		t.Fatalf("post-drain Schedule: %v, want ErrEngineClosed", err)
	}
}

// TestEngineSlotReuse serves the same graph, then a differently shaped
// one, then the first again, all on one worker slot and so on one
// state: any buffer, mark array or cached closure that survived reset
// would skew the third schedule against the first.
func TestEngineSlotReuse(t *testing.T) {
	net := engineTopology()
	opts := sched.Options{ProcSelect: sched.ProcSelectEFT, Insertion: sched.InsertionOptimal,
		EdgeOrder: sched.EdgeOrderDescCost}
	eng, err := sched.NewEngine(net, sched.EngineOptions{Opts: opts, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Drain()
	g, other := engineGraph(31), dag.Chain(4, 1, 10)
	var got []*sched.Schedule
	for _, x := range []*dag.Graph{g, other, g} {
		s, err := eng.Schedule(x)
		if err != nil {
			t.Fatal(err)
		}
		mustVerify(t, s)
		got = append(got, s)
	}
	if d := sched.DiffSchedules(got[0], got[2]); d != "" {
		t.Fatalf("slot reuse changed the schedule: %s", d)
	}
	if st := eng.Stats(); st.ColdState != 1 {
		t.Fatalf("one slot bound its state %d times, want once", st.ColdState)
	}
}

// TestEngineColdStatesBounded is the regression pin for state
// ownership: the engine holds one state per worker slot outright, so
// garbage collection between requests cannot take them and no request
// after the first on each slot starts cold.
func TestEngineColdStatesBounded(t *testing.T) {
	const slots = 2
	eng, err := sched.NewEngine(engineTopology(), sched.EngineOptions{
		Name: "BBSA", Opts: sched.NewBBSA().Opts, MaxConcurrent: slots,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Drain()
	for i := 0; i < 4*slots; i++ {
		// Concurrent requests in every round, so every slot is used.
		got := make([]*sched.Schedule, slots)
		errs := make([]error, slots)
		var wg sync.WaitGroup
		for j := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[j], errs[j] = eng.Schedule(engineGraph(i*slots + j))
			}()
		}
		wg.Wait()
		for j := range got {
			if errs[j] != nil {
				t.Fatal(errs[j])
			}
			mustVerify(t, got[j])
		}
		// Two collections: a sync.Pool's victim cache survives one.
		runtime.GC()
		runtime.GC()
	}
	if st := eng.Stats(); st.ColdState > slots {
		t.Fatalf("%d cold states over %d requests, want at most MaxConcurrent = %d",
			st.ColdState, st.Requests, slots)
	}
}

// TestEngineSharedInputsRace schedules ONE shared graph on ONE
// topology from many goroutines through both a Dijkstra-routed engine
// (OIHSA) and a probing EFT engine (BA-EFT). The public API allows
// exactly this sharing, so under -race any write to the graph or the
// topology — from placement, route search or an EFT probe — is
// reported here.
func TestEngineSharedInputsRace(t *testing.T) {
	const goroutines = 8
	// One P per request, and a graph large enough that a schedule
	// outlives a time slice: the requests run interleaved even on one
	// core, instead of back to back with every access ordered.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(goroutines))
	// A ring, not engineTopology's star: on a star every pair has one
	// route, which OIHSA takes without a search (Router.Route), while
	// every ring pair has two for the search to choose between.
	net := network.Ring(6, network.Uniform(1), network.Uniform(1))
	g := dag.RandomLayered(rand.New(rand.NewSource(5)), dag.RandomLayeredParams{
		Tasks:    200,
		TaskCost: dag.CostDist{Lo: 1, Hi: 40},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 150},
	})
	for _, ls := range []*sched.ListScheduler{sched.NewOIHSA(), sched.NewBASinnen()} {
		eng, err := sched.NewEngine(net, sched.EngineOptions{
			Name: ls.Name(), Opts: ls.Opts, MaxConcurrent: goroutines,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := coldRun(t, ls.Name(), ls.Opts, g, net)
		got := make([]*sched.Schedule, goroutines)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = eng.Schedule(g)
			}()
		}
		wg.Wait()
		eng.Drain()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("%s request %d: %v", ls.Name(), i, errs[i])
			}
			mustVerify(t, got[i])
			if d := sched.DiffSchedules(want, got[i]); d != "" {
				t.Fatalf("%s request %d diverged from the cold run: %s", ls.Name(), i, d)
			}
		}
	}
}

// TestEngineSteadyStateAllocs pins the allocation contract of the
// serving path: a warm engine slot schedules a request in a constant
// number of allocations (the Schedule and the columns it hands out),
// whatever the graph's size. Every engine-able preset and golden option
// set runs on a 400-task §6 instance and on a 3000-task long-link
// instance with 1.5-2k slots per link, where an allocation per edge,
// route or slot would read in the hundreds. Duplication's dups column
// grows by append, so it has a ceiling of its own. -short leaves out
// the packet engine on the long-link instance: its 3.5 s a run are
// nine tenths of the test's time.
func TestEngineSteadyStateAllocs(t *testing.T) {
	const ceiling, dupCeiling = 12, 16
	instances := []struct {
		name string
		inst workload.Instance
	}{
		{"sec6-400", workload.Generate(workload.Params{
			Processors: 8, CCR: 2, Heterogeneous: true, MinTasks: 400, MaxTasks: 400, Seed: 601,
		})},
		{"long-links-3000", workload.Generate(workload.Params{
			Processors: 4, CCR: 10, MinTasks: 3000, MaxTasks: 3000, Seed: 42,
		})},
	}
	for _, in := range instances {
		for _, a := range goldenAlgorithms() {
			ls, ok := a.(*sched.ListScheduler)
			if !ok || testing.Short() && in.name == "long-links-3000" && ls.Opts.Engine == sched.EnginePackets {
				continue
			}
			eng, err := sched.NewEngine(in.inst.Net, sched.EngineOptions{
				Name: ls.Name(), Opts: ls.Opts, MaxConcurrent: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			var s *sched.Schedule
			allocs := testing.AllocsPerRun(1, func() {
				if s, err = eng.Schedule(in.inst.Graph); err != nil {
					t.Fatalf("%s on %s: %v", ls.Name(), in.name, err)
				}
			})
			eng.Drain()
			mustVerify(t, s)
			limit := ceiling
			if ls.Opts.Duplication {
				limit = dupCeiling
			}
			t.Logf("%s on %s: %v allocs per warm request", ls.Name(), in.name, allocs)
			if allocs > float64(limit) {
				t.Errorf("%s on %s: a warm engine request allocates %v times, want at most %d",
					ls.Name(), in.name, allocs, limit)
			}
		}
	}
}
