package sched

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/network"
)

// Pool-hygiene tests for state reuse. These live in the package so they
// can drive reset directly and point the rollback oracle's fingerprint
// machinery at the pooled state: the contract is that a state which
// served run N and was reset for run N+1 is indistinguishable — bit for
// bit, arenas, journals, timelines — from a state built cold for run
// N+1, whatever topology, policies or role run N had.

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
// prevOpts on prevNet — as a primary, or as a fork replica — is reset
// for a run under opts on net.
type hygieneCase struct {
	prevNet, net   *network.Topology
	prevOpts, opts Options
	fork           bool
}

func hygieneCases() map[string]hygieneCase {
	star5 := network.Star(5, network.Uniform(1), network.Uniform(1))
	cases := map[string]hygieneCase{}
	for name, opts := range hygieneOptions() {
		cases[name] = hygieneCase{prevNet: star5, net: star5, prevOpts: opts, opts: opts}
	}
	// One pool serves fork replicas and engine states alike, so a state
	// can come back from a different topology, policy set and role: a
	// bandwidth + EFT replica on star:9 reused for slots + insertion on
	// star:5. Its cached relaxation closure reads the bandwidth ledger
	// and must not survive the change of engine.
	cases["fork-bandwidth-star9-to-insertion-star5"] = hygieneCase{
		prevNet: network.Star(9, network.Uniform(1), network.Uniform(1)),
		net:     star5,
		prevOpts: Options{Routing: RoutingDijkstra, ProcSelect: ProcSelectEFT,
			Engine: EngineBandwidth},
		opts: Options{Routing: RoutingDijkstra, ProcSelect: ProcSelectEFT,
			TaskPolicy: TaskInsertion},
		fork: true,
	}
	return cases
}

// placeInOrder commits tasks in the given order with the configured
// processor selection.
func placeInOrder(t *testing.T, s *state, order []dag.TaskID) {
	t.Helper()
	for _, tid := range order {
		proc, err := s.selectProcessor(tid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.placeTask(tid, proc); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResetForNoResidue is the fingerprint oracle for pooled reuse: a
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

			prev, err := newState(big, c.prevNet, c.prevOpts)
			if err != nil {
				t.Fatal(err)
			}
			pooled := prev
			if c.fork {
				// Half the graph on the primary, the rest on a replica,
				// so the replica's own journals and closures carry
				// residue too.
				order, err := big.PriorityOrder()
				if err != nil {
					t.Fatal(err)
				}
				placeInOrder(t, prev, order[:len(order)/2])
				pooled = prev.Clone()
				placeInOrder(t, pooled, order[len(order)/2:])
				if pooled.relaxFn == nil || pooled.txFree == nil {
					t.Fatal("replica built no closures or journals; the case tests nothing")
				}
			} else if _, err := scheduleOn(prev, "big"); err != nil {
				t.Fatal(err)
			}
			// An engine keeps its shared cache across requests; a state
			// moving to another topology needs a cache of its own.
			cache := pooled.routeCache
			if c.prevNet != c.net {
				cache = network.NewRouteCache(0, 1)
			}
			pooled.reset(small, c.net, c.opts, cache)
			if c.prevOpts != c.opts && pooled.relaxFn != nil {
				t.Fatal("reset kept the relaxation closure cached under different options")
			}

			fresh, err := newState(small, c.net, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			// Shape first: the oracle's diff indexes by the fresh
			// state's entity counts, so any size residue is named here.
			if len(pooled.tasks) != len(fresh.tasks) ||
				len(pooled.procFinish) != len(fresh.procFinish) ||
				len(pooled.edges.meta) != len(fresh.edges.meta) ||
				len(pooled.tl) != len(fresh.tl) ||
				len(pooled.bw) != len(fresh.bw) ||
				len(pooled.ptl) != len(fresh.ptl) {
				t.Fatalf("reset state shape differs from cold state")
			}
			if len(pooled.edges.routes) != 0 || len(pooled.edges.legs) != 0 ||
				len(pooled.edges.chunks) != 0 {
				t.Fatalf("arena residue after reset: %d routes, %d legs, %d chunks",
					len(pooled.edges.routes), len(pooled.edges.legs), len(pooled.edges.chunks))
			}
			if d := fresh.captureFingerprint().diff(pooled); d != "" {
				t.Fatalf("run N residue visible to run N+1: %s", d)
			}

			// The ground truth: the reused state schedules the small
			// graph bit-identically to the cold state.
			got, err := scheduleOn(pooled, "x")
			if err != nil {
				t.Fatal(err)
			}
			want, err := scheduleOn(fresh, "x")
			if err != nil {
				t.Fatal(err)
			}
			if d := DiffSchedules(want, got); d != "" {
				t.Fatalf("pooled state's schedule diverged from cold: %s", d)
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
	e.sem <- struct{}{} // occupy the only worker slot
	waiterDone := make(chan error, 1)
	go func() { waiterDone <- e.acquire() }() // fills the queue
	for e.waiting.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	if err := e.acquire(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire with full queue: %v, want ErrOverloaded", err)
	}
	<-e.sem // free the slot; the waiter acquires it
	if err := <-waiterDone; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	e.release()
	if got := e.active.Load(); got != 0 {
		t.Fatalf("active count after release: %d", got)
	}
}
