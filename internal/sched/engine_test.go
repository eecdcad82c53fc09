package sched

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/network"
)

// State-reuse hygiene tests. These live in the package so they can
// drive reset directly and point the rollback oracle's fingerprint
// machinery at the reused state: the contract is that a state which
// served run N and was reset for run N+1 is indistinguishable — bit for
// bit, arenas, journals, timelines — from a state built cold for run
// N+1, whatever topology or policies run N had.

// hygieneOptions are the policy sets whose states exercise every
// column family: slot timelines with insertion + duplication, and
// bandwidth timelines with chunk arenas.
func hygieneOptions() map[string]Options {
	return map[string]Options{
		"slots-full": {ProcSelect: ProcSelectEFT, Insertion: InsertionOptimal,
			EdgeOrder: EdgeOrderDescCost, Duplication: true},
		"insertion": {ProcSelect: ProcSelectEFT, TaskPolicy: TaskInsertion},
		"bandwidth": {ProcSelect: ProcSelectEFT, Engine: EngineBandwidth},
	}
}

func hygieneGraph(seed int64, tasks int) *dag.Graph {
	r := rand.New(rand.NewSource(seed))
	return dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    tasks,
		TaskCost: dag.CostDist{Lo: 1, Hi: 50},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
	})
}

// hygieneCase is one reuse scenario: a state that last ran under
// prevOpts on prevNet is reset for a run under opts on net.
type hygieneCase struct {
	prevNet, net   *network.Topology
	prevOpts, opts Options
}

func hygieneCases() map[string]hygieneCase {
	star5 := network.Star(5, network.Uniform(1), network.Uniform(1))
	cases := map[string]hygieneCase{}
	for name, opts := range hygieneOptions() {
		cases[name] = hygieneCase{prevNet: star5, net: star5, prevOpts: opts, opts: opts}
	}
	// reset must also rebind a state across topologies and policy sets:
	// a bandwidth + EFT state on star:9 reused for slots + insertion on
	// star:5. Its cached relaxation closure reads the bandwidth ledger
	// and must not survive the change of engine.
	cases["bandwidth-star9-to-insertion-star5"] = hygieneCase{
		prevNet: network.Star(9, network.Uniform(1), network.Uniform(1)),
		net:     star5,
		prevOpts: Options{Routing: RoutingDijkstra, ProcSelect: ProcSelectEFT,
			Engine: EngineBandwidth},
		opts: Options{Routing: RoutingDijkstra, ProcSelect: ProcSelectEFT,
			TaskPolicy: TaskInsertion},
	}
	return cases
}

// TestResetForNoResidue is the fingerprint oracle for state reuse: a
// state that scheduled a LARGE graph — populating arenas, journals,
// timelines and cached closures — then was reset for a small,
// differently shaped graph must match a cold state for that graph
// exactly, and must go on to produce the bit-identical schedule.
//
// edgelint:ignore verifysched — in-package (verify would cycle); the
// schedules here are compared bit-for-bit against cold runs, and the
// same engine paths run under the full validator in engine_ext_test.go.
func TestResetForNoResidue(t *testing.T) {
	for name, c := range hygieneCases() {
		c := c
		t.Run(name, func(t *testing.T) {
			big := hygieneGraph(7, 40)
			small := hygieneGraph(8, 9)

			reused, err := newState(big, c.prevNet, c.prevOpts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := scheduleOn(reused, "big"); err != nil {
				t.Fatal(err)
			}
			if reused.txFree == nil {
				t.Fatal("the first run built no journals; the case tests nothing")
			}
			// An engine keeps its shared cache across requests; a state
			// moving to another topology needs a cache of its own.
			cache := reused.routeCache
			if c.prevNet != c.net {
				cache = network.NewRouteCache(0, 1)
			}
			reused.reset(small, c.net, c.opts, cache)
			if c.prevOpts != c.opts && reused.relaxFn != nil {
				t.Fatal("reset kept the relaxation closure cached under different options")
			}

			fresh, err := newState(small, c.net, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			// Shape first: the oracle's diff indexes by the fresh
			// state's entity counts, so any size residue is named here.
			if len(reused.tasks) != len(fresh.tasks) ||
				len(reused.procFinish) != len(fresh.procFinish) ||
				len(reused.edges.meta) != len(fresh.edges.meta) ||
				len(reused.tl) != len(fresh.tl) ||
				len(reused.bw) != len(fresh.bw) ||
				len(reused.ptl) != len(fresh.ptl) {
				t.Fatalf("reset state shape differs from cold state")
			}
			if len(reused.edges.routes) != 0 || len(reused.edges.legs) != 0 ||
				len(reused.edges.chunks) != 0 {
				t.Fatalf("arena residue after reset: %d routes, %d legs, %d chunks",
					len(reused.edges.routes), len(reused.edges.legs), len(reused.edges.chunks))
			}
			if d := fresh.captureFingerprint().diff(reused); d != "" {
				t.Fatalf("run N residue visible to run N+1: %s", d)
			}

			// The ground truth: the reused state schedules the small
			// graph bit-identically to the cold state.
			got, err := scheduleOn(reused, "x")
			if err != nil {
				t.Fatal(err)
			}
			want, err := scheduleOn(fresh, "x")
			if err != nil {
				t.Fatal(err)
			}
			if d := DiffSchedules(want, got); d != "" {
				t.Fatalf("reused state's schedule diverged from cold: %s", d)
			}
		})
	}
}

// TestResetForJournalSizes pins that reset resizes the reusable
// transaction journals to the new graph's census — otherwise the first
// probe of the next request would trip begin's size-drift panic (or
// worse, index out of bounds).
func TestResetForJournalSizes(t *testing.T) {
	net := network.Star(4, network.Uniform(1), network.Uniform(1))
	opts := Options{ProcSelect: ProcSelectEFT}
	s, err := newState(hygieneGraph(11, 30), net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scheduleOn(s, "x"); err != nil {
		t.Fatal(err)
	}
	if s.txFree == nil {
		t.Fatal("schedule run left no reusable journal")
	}
	g2 := hygieneGraph(12, 50) // larger: journals must grow
	s.reset(g2, net, opts, s.routeCache)
	s.checkJournalSizes(s.txFree) // panics on drift
	if _, err := scheduleOn(s, "x"); err != nil {
		t.Fatal(err)
	}
}

// TestEngineOverload pins the fail-fast admission path without racing:
// with one worker slot occupied and one request already waiting, the
// next acquire must return ErrOverloaded immediately.
func TestEngineOverload(t *testing.T) {
	net := network.Star(3, network.Uniform(1), network.Uniform(1))
	e, err := NewEngine(net, EngineOptions{Opts: Options{}, MaxConcurrent: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	held := <-e.slots // occupy the only worker slot
	waiter := make(chan *state, 1)
	go func() { // fills the queue
		s, err := e.acquire()
		if err != nil {
			t.Errorf("queued acquire: %v", err)
		}
		waiter <- s
	}()
	for e.waiting.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	if _, err := e.acquire(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire with full queue: %v, want ErrOverloaded", err)
	}
	e.slots <- held // free the slot; the waiter acquires it
	s := <-waiter
	if s != held {
		t.Fatal("the queued request did not receive the slot's state")
	}
	e.release(s)
	if got := e.active.Load(); got != 0 {
		t.Fatalf("active count after release: %d", got)
	}
}

// TestEngineReleaseReplacesStateInTxn pins the slot's corruption rule:
// a state handed back while still inside a transaction (a request that
// panicked out of a rollback) is replaced by a zero state, so the slot
// is kept and the next request never receives the broken state.
//
// edgelint:ignore verifysched — in-package (verify would cycle); the
// schedule is compared bit-for-bit against a cold run, and the same
// engine paths run under the full validator in engine_ext_test.go.
func TestEngineReleaseReplacesStateInTxn(t *testing.T) {
	net := network.Star(3, network.Uniform(1), network.Uniform(1))
	e, err := NewEngine(net, EngineOptions{Name: "BA-EFT", Opts: NewBASinnen().Opts, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := dag.Chain(3, 5, 20)
	s, err := e.acquire()
	if err != nil {
		t.Fatal(err)
	}
	s.reset(g, e.net, e.opts, e.cache)
	s.begin()
	e.release(s)

	next, err := e.acquire()
	if err != nil {
		t.Fatal(err)
	}
	if next == s || next.tx != nil {
		t.Fatal("the slot handed out the state released inside a transaction")
	}
	e.release(next)
	got, err := e.Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewBASinnen().Schedule(g, net)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffSchedules(want, got); d != "" {
		t.Fatalf("the replacement state's schedule diverged from a cold run: %s", d)
	}
}

// TestSelfCheckDivergenceIsErrSelfCheck pins the error class of the
// determinism oracle: a schedule that differs from the cold re-run
// fails with ErrSelfCheck, which the daemon maps to a server error.
//
// edgelint:ignore verifysched — in-package (verify would cycle); the
// test checks the self-check's error class, not the schedule, and the
// same engine paths run under the full validator in engine_ext_test.go.
func TestSelfCheckDivergenceIsErrSelfCheck(t *testing.T) {
	net := network.Star(3, network.Uniform(1), network.Uniform(1))
	e, err := NewEngine(net, EngineOptions{Opts: NewOIHSA().Opts})
	if err != nil {
		t.Fatal(err)
	}
	g := dag.Chain(3, 5, 20)
	got, err := e.Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.selfCheck(g, got); err != nil {
		t.Fatalf("self-check of the engine's own schedule: %v", err)
	}
	got.Tasks[1].Start += 1
	if err := e.selfCheck(g, got); !errors.Is(err, ErrSelfCheck) {
		t.Fatalf("self-check of a tampered schedule: %v, want ErrSelfCheck", err)
	}
}
