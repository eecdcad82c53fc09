package sched

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/network"
)

// State-reuse hygiene tests. These live in the package so they can
// drive reset directly and point the fingerprint diff at the reused
// state: the contract is that a state which served run N and was reset
// for run N+1 is indistinguishable — bit for bit, arenas, journals,
// timelines — from a state built cold for run N+1, whatever topology or
// policies run N had.

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
			if _, err := scheduleOn(reused, "big", nil); err != nil {
				t.Fatal(err)
			}
			if reused.txFree == nil {
				t.Fatal("the first run built no journals; the case tests nothing")
			}
			reused.reset(small, c.net, c.opts)
			if c.prevOpts != c.opts && reused.relaxFn != nil {
				t.Fatal("reset kept the relaxation closure cached under different options")
			}

			fresh, err := newState(small, c.net, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := fresh.captureFingerprint().diff(reused); d != "" {
				t.Fatalf("run N residue visible to run N+1: %s", d)
			}

			// The ground truth: the reused state schedules the small
			// graph bit-identically to the cold state.
			got, err := scheduleOn(reused, "x", nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scheduleOn(fresh, "x", nil)
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
// probe of the next request would index journal.put's marks out of
// bounds, or journal IDs into marks of another entity census.
func TestResetForJournalSizes(t *testing.T) {
	net := network.Star(4, network.Uniform(1), network.Uniform(1))
	opts := Options{ProcSelect: ProcSelectEFT}
	s, err := newState(hygieneGraph(11, 30), net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scheduleOn(s, "x", nil); err != nil {
		t.Fatal(err)
	}
	if s.txFree == nil {
		t.Fatal("schedule run left no reusable journal")
	}
	g2 := hygieneGraph(12, 50) // larger: journals must grow
	s.reset(g2, net, opts)
	tx := s.txFree
	got := []int{len(tx.taskOld.mark), len(tx.procOld.mark), len(tx.edgeOld.mark),
		len(tx.tlSnaps.mark), len(tx.bwSnaps.mark), len(tx.ptlSnaps.mark)}
	want := []int{len(s.tasks), len(s.procFinish), len(s.edges.meta), len(s.tl), len(s.bw), len(s.ptl)}
	if !slices.Equal(got, want) {
		t.Fatalf("journals sized %v after reset, state has %v", got, want)
	}
	if _, err := scheduleOn(s, "x", nil); err != nil {
		t.Fatal(err)
	}
}

// TestEngineWarmsEverySlot pins route warming under slot ownership:
// NewEngine fills every slot's own route cache with all P·(P−1)
// processor pairs, a request keeps that cache (reset does not rebuild
// a router that already routes over the engine's topology) and adds no
// route to it, and the request still counts as its slot's cold state.
//
// edgelint:ignore verifysched — in-package (verify would cycle); the
// schedule is compared bit-for-bit against a cold run, and the same
// engine paths run under the full validator in engine_ext_test.go.
func TestEngineWarmsEverySlot(t *testing.T) {
	const slots = 2
	net := network.Star(12, network.Uniform(1), network.Uniform(1))
	pairs := net.NumProcessors() * (net.NumProcessors() - 1)
	e, err := NewEngine(net, EngineOptions{Name: "BA-EFT", Opts: NewBASinnen().Opts,
		MaxConcurrent: slots, WarmRoutes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Drain()
	cached := func(when string) {
		t.Helper()
		var held []*state
		for range slots {
			s := <-e.slots
			if n := s.router.CachedRoutes(); n != pairs {
				t.Errorf("%s: a slot's cache holds %d routes, want %d", when, n, pairs)
			}
			held = append(held, s)
		}
		for _, s := range held {
			e.slots <- s
		}
	}
	cached("after NewEngine")
	g := hygieneGraph(7, 9)
	got, err := e.Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	cached("after a BA-EFT request")
	want, err := NewBASinnen().Schedule(g, net)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffSchedules(want, got); d != "" {
		t.Fatalf("warm slot's schedule diverged from a cold run: %s", d)
	}
	if st := e.Stats(); st.ColdState != 1 {
		t.Fatalf("ColdState %d after the first request, want 1", st.ColdState)
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
	s.reset(g, e.net, e.opts)
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

// TestReleaseDropsRunAndTransaction pins state.release, the hand-back
// of the one-shot pool and of Engine slots: a state released after a
// run keeps no reference to the run's graph or to the task and
// duplicate columns its Schedule owns, and a state released inside a
// transaction (its run panicked mid-probe) is refused, so it never
// serves another run.
func TestReleaseDropsRunAndTransaction(t *testing.T) {
	net := network.Star(4, network.Uniform(1), network.Uniform(1))
	opts := Options{ProcSelect: ProcSelectEFT, Duplication: true}
	s := new(state)
	if _, _, err := s.run(hygieneGraph(5, 20), net, opts, "x", nil); err != nil {
		t.Fatal(err)
	}
	if s.g == nil || s.tasks == nil {
		t.Fatal("the run left no graph or task column; the case tests nothing")
	}
	if !s.release() {
		t.Fatal("release refused a state outside any transaction")
	}
	if s.g != nil || s.tasks != nil || s.dups != nil {
		t.Fatalf("released state still holds graph %p, %d tasks, %d dups", s.g, len(s.tasks), len(s.dups))
	}

	s.reset(hygieneGraph(6, 10), net, opts)
	s.begin()
	if s.release() {
		t.Fatal("release accepted a state inside a transaction")
	}
}
