package sched

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/linksched"
	"repro/internal/network"
)

// mkState builds a fresh state for white-box tests.
func mkState(t *testing.T, g *dag.Graph, net *network.Topology, opts Options) *state {
	t.Helper()
	s, err := newState(g, net, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// edgeView materializes the columnar store's record of one edge (nil if
// unscheduled) for white-box assertions against the public shape.
func (s *state) edgeView(id dag.EdgeID) *EdgeSchedule {
	return s.edges.materialize()[id]
}

func TestReadyTime(t *testing.T) {
	g := dag.New()
	a := g.AddTask("a", 10)
	b := g.AddTask("b", 20)
	c := g.AddTask("c", 1)
	g.AddEdge(a, c, 5)
	g.AddEdge(b, c, 5)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{})
	p := net.Processors()
	if _, err := s.placeTask(a, p[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.placeTask(b, p[1]); err != nil {
		t.Fatal(err)
	}
	// a finishes at 10, b at 20 → c ready at 20.
	if got := s.readyTime(c); got != 20 {
		t.Fatalf("readyTime=%v, want 20", got)
	}
	if got := s.readyTime(a); got != 0 {
		t.Fatalf("source readyTime=%v, want 0", got)
	}
}

func TestCommAtReadyDelaysEarlyPredecessor(t *testing.T) {
	// a (fast) and b (slow) feed c. Under CommAtReady, a's data may not
	// enter the network before b finishes.
	g := dag.New()
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 50)
	c := g.AddTask("c", 1)
	ea := g.AddEdge(a, c, 10)
	g.AddEdge(b, c, 10)
	net := network.Line(3, network.Uniform(1), network.Uniform(1))
	p := net.Processors()

	run := func(cs CommStart) *state {
		s := mkState(t, g, net, Options{CommStart: cs})
		if _, err := s.placeTask(a, p[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.placeTask(b, p[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.placeTask(c, p[2]); err != nil {
			t.Fatal(err)
		}
		return s
	}

	ready := run(CommAtReady)
	if es := ready.edgeView(ea); es == nil || es.Placements[0].Start < 50 {
		t.Fatalf("at-ready: edge a->c entered the network at %v, want ≥ 50 (b's finish)",
			es.Placements[0].Start)
	}
	eager := run(CommAtSourceFinish)
	if es := eager.edgeView(ea); es == nil || es.Placements[0].Start >= 50 {
		t.Fatalf("eager: edge a->c entered the network at %v, want < 50",
			es.Placements[0].Start)
	}
}

func TestTxnRollbackRestoresEverything(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    20,
		TaskCost: dag.CostDist{Lo: 1, Hi: 50},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
	})
	net := network.Star(4, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{Insertion: InsertionOptimal, ProcSelect: ProcSelectEFT})
	order, err := g.PriorityOrder()
	if err != nil {
		t.Fatal(err)
	}
	// Commit the first half of the tasks.
	half := len(order) / 2
	for _, tid := range order[:half] {
		proc, err := s.selectProcessor(tid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.placeTask(tid, proc); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot observable state.
	type snap struct {
		tasks      []TaskPlacement
		procFinish []float64
		slotCounts []int
		placements map[dag.EdgeID][]EdgePlacement
	}
	capture := func() snap {
		sn := snap{
			tasks:      append([]TaskPlacement(nil), s.tasks...),
			procFinish: append([]float64(nil), s.procFinish...),
			placements: map[dag.EdgeID][]EdgePlacement{},
		}
		for _, tl := range s.tl {
			sn.slotCounts = append(sn.slotCounts, tl.Len())
		}
		for i, es := range s.edges.materialize() {
			if es != nil {
				sn.placements[dag.EdgeID(i)] = append([]EdgePlacement(nil), es.Placements...)
			}
		}
		return sn
	}
	before := capture()
	// Tentatively place the next task on every processor and roll back.
	next := order[half]
	for _, p := range net.Processors() {
		s.begin()
		if _, err := s.placeTask(next, p); err != nil {
			t.Fatal(err)
		}
		s.rollback()
	}
	after := capture()
	for i := range before.tasks {
		if before.tasks[i] != after.tasks[i] {
			t.Fatalf("task %d placement changed by rollback: %+v -> %+v", i, before.tasks[i], after.tasks[i])
		}
	}
	for i := range before.procFinish {
		if before.procFinish[i] != after.procFinish[i] {
			t.Fatalf("proc %d clock changed by rollback", i)
		}
	}
	for i := range before.slotCounts {
		if before.slotCounts[i] != after.slotCounts[i] {
			t.Fatalf("link %d slot count changed by rollback", i)
		}
	}
	for id, pls := range before.placements {
		got := after.placements[id]
		if len(got) != len(pls) {
			t.Fatalf("edge %d placements changed by rollback", id)
		}
		for i := range pls {
			if pls[i].Link != got[i].Link || pls[i].Start != got[i].Start || pls[i].Finish != got[i].Finish {
				t.Fatalf("edge %d leg %d changed by rollback: %+v -> %+v", id, i, pls[i], got[i])
			}
		}
	}
}

func TestTxnRollbackRestoresBandwidth(t *testing.T) {
	g := dag.Diamond(10, 50)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{Engine: EngineBandwidth, ProcSelect: ProcSelectEFT})
	order, err := g.PriorityOrder()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.placeTask(order[0], net.Processors()[0]); err != nil {
		t.Fatal(err)
	}
	segs := make([]int, len(s.bw))
	for i, bw := range s.bw {
		segs[i] = bw.NumSegments()
	}
	s.begin()
	if _, err := s.placeTask(order[1], net.Processors()[1]); err != nil {
		t.Fatal(err)
	}
	s.rollback()
	for i, bw := range s.bw {
		if bw.NumSegments() != segs[i] {
			t.Fatalf("bw timeline %d changed by rollback", i)
		}
	}
}

// TestCowEdgeLegsJournalsUntouchedEdge reproduces the span-level
// silent-rollback hole: writing a committed edge's leg records in place
// would corrupt arena entries below the rollback watermark, which
// truncation cannot restore. setLeg must journal the pre-copy meta and
// write to a transaction-private copy above the watermark.
func TestCowEdgeLegsJournalsUntouchedEdge(t *testing.T) {
	g := dag.Chain(2, 1, 100)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{})
	p := net.Processors()
	if _, err := s.placeTask(0, p[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.placeTask(1, p[1]); err != nil {
		t.Fatal(err)
	}
	m := s.edges.meta[0]
	if !m.scheduled || m.legs.n == 0 {
		t.Fatalf("chain edge has no schedule: %+v", m)
	}
	want := s.edges.legs[m.legs.off]
	nLegs := len(s.edges.legs)

	// Probe-style transaction that shifts a committed leg the edge
	// never journaled before.
	s.begin()
	shifted := want
	shifted.start += 17
	shifted.finish += 17
	s.setLeg(0, 0, shifted)
	if !s.tx.edgeOld.has(0) {
		t.Fatal("setLeg did not journal the pre-copy meta")
	}
	cowOff := s.edges.meta[0].legs.off
	if int(cowOff) < s.tx.marks.legs {
		t.Fatal("setLeg wrote a committed edge's legs below the rollback watermark")
	}
	if got := s.edges.legs[cowOff]; got != shifted {
		t.Fatalf("setLeg stored %+v, want %+v", got, shifted)
	}
	s.rollback()

	if got := s.edges.meta[0]; got != m {
		t.Fatalf("rollback did not restore the pre-transaction meta: %+v -> %+v", m, got)
	}
	if got := s.edges.legs[m.legs.off]; got != want {
		t.Fatalf("rollback left a corrupted leg record: %+v, want %+v", got, want)
	}
	if len(s.edges.legs) != nLegs {
		t.Fatalf("rollback did not truncate the legs arena: %d entries, want %d", len(s.edges.legs), nLegs)
	}
}

// TestProbePanicSafe locks in the open-transaction fix: a panic inside
// placeTask must not leave s.tx set (which would poison the replica —
// every later probe would die with "nested transaction").
func TestProbePanicSafe(t *testing.T) {
	g := dag.Chain(2, 1, 10)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{VerifyRollbackEvery: 1})
	p := net.Processors()
	if _, err := s.placeTask(0, p[0]); err != nil {
		t.Fatal(err)
	}
	before := captureSnap(s)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("probe of a nonexistent processor did not panic")
			}
		}()
		s.probe(1, network.NodeID(9999)) // edgelint:ignore errflow — the call panics before returning
	}()

	if s.tx != nil {
		t.Fatal("panicking probe left the transaction open")
	}
	if after := captureSnap(s); !snapsEqual(before, after) {
		t.Fatal("panicking probe left the state mutated")
	}
	// The replica must still be usable: a later probe and commit work.
	if _, err := s.probe(1, p[1]); err != nil {
		t.Fatalf("probe after recovered panic: %v", err)
	}
	if _, err := s.placeTask(1, p[1]); err != nil {
		t.Fatalf("placement after recovered panic: %v", err)
	}
}

// TestRollbackOracleDetectsUnjournaledWrites arms the oracle on every
// transaction and commits un-journaled writes inside one, one per
// journaled column: rollback must panic and name the corrupted field.
// The oracle is the only guard that the journaling mutators cover their
// stores, so it must see every column.
func TestRollbackOracleDetectsUnjournaledWrites(t *testing.T) {
	corrupt := map[string]struct {
		opts   Options
		mutate func(s *state)
	}{
		"task": {mutate: func(s *state) {
			s.tasks[0] = TaskPlacement{Task: 0, Proc: 0, Start: 1, Finish: 2}
		}},
		"processor": {mutate: func(s *state) {
			s.procFinish[0] += 5
		}},
		"edge": {mutate: func(s *state) {
			// In-place write of a committed leg record, bypassing
			// setLeg's copy-on-write — the span-level silent-rollback
			// hole.
			s.edges.legs[s.edges.meta[0].legs.off].start += 3
		}},
		"link": {mutate: func(s *state) {
			s.tl[0].InsertBasic(linksched.Owner{Edge: 99, Leg: 0}, linksched.Request{ES: 500, PF: 500, Dur: 1})
		}},
		"slack": {mutate: func(s *state) {
			// A slack-column write that bypasses linkTL.
			lid := s.edges.routeAt(0, 0)
			sl := s.tl[lid].Slots()[0]
			s.tl[lid].SetSlack(sl.Owner, sl.Start, 42)
		}},
		"bandwidth": {opts: Options{Engine: EngineBandwidth}, mutate: func(s *state) {
			s.bw[0].Alloc(linksched.Owner{Edge: 99, Leg: 0}, 500, 10, 1, 0)
		}},
		"proctimeline": {opts: Options{TaskPolicy: TaskInsertion}, mutate: func(s *state) {
			p := s.net.Processors()[0]
			s.ptl[p].InsertBasic(linksched.Owner{Edge: 99, Leg: -1}, linksched.Request{ES: 500, PF: 500, Dur: 1})
		}},
		"duplicate": {opts: Options{Duplication: true}, mutate: func(s *state) {
			// An append that bypasses addDup: rollback has no length
			// to truncate back to.
			s.dups = append(s.dups, TaskPlacement{Task: 0, Proc: s.net.Processors()[0], Start: 7, Finish: 8})
		}},
	}
	for name, c := range corrupt {
		t.Run(name, func(t *testing.T) {
			g := dag.Chain(2, 1, 100)
			net := network.Line(2, network.Uniform(1), network.Uniform(1))
			opts := c.opts
			opts.VerifyRollbackEvery = 1
			s := mkState(t, g, net, opts)
			p := net.Processors()
			if _, err := s.placeTask(0, p[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.placeTask(1, p[1]); err != nil {
				t.Fatal(err)
			}
			s.begin()
			c.mutate(s)
			defer func() {
				if r := recover(); r == nil {
					t.Fatal("rollback oracle missed an un-journaled write")
				}
			}()
			s.rollback()
		})
	}
}

// TestMutatorsRollBack drives every journaling mutator on committed
// state inside a transaction with the rollback oracle armed. Each write
// must change the state (so the row is not vacuous) and rollback must
// undo it exactly, or the oracle panics naming the field: a mutator
// whose journal step is lost fails its row here, including the ones
// (sealEdge, clearEdge of a scheduled edge) that the schedulers only
// reach with the record already journaled.
func TestMutatorsRollBack(t *testing.T) {
	rows := map[string]struct {
		opts   Options
		mutate func(s *state)
	}{
		"setTask": {mutate: func(s *state) {
			s.setTask(2, TaskPlacement{Task: 2, Proc: s.net.Processors()[1], Start: 7, Finish: 9})
		}},
		"setProcFinish": {mutate: func(s *state) {
			p := s.net.Processors()[0]
			s.setProcFinish(p, s.procFinish[p]+5)
		}},
		"addDup": {opts: Options{Duplication: true}, mutate: func(s *state) {
			s.addDup(TaskPlacement{Task: 0, Proc: s.net.Processors()[1], Start: 3, Finish: 4})
		}},
		"placeEdge": {mutate: func(s *state) {
			p := s.net.Processors()
			s.placeEdge(0, p[0], p[1], network.Route{s.edges.routeAt(0, 0)}, 3)
		}},
		"sealEdge": {mutate: func(s *state) {
			s.sealEdge(1, 5) // the intra-processor edge holds no record yet
		}},
		"clearEdge": {mutate: func(s *state) {
			s.clearEdge(0) // a scheduled edge
		}},
		"setLeg": {mutate: func(s *state) {
			l := s.edges.leg(0, 0) // shift a committed leg
			l.start += 3
			l.finish += 3
			s.setLeg(0, 0, l)
		}},
		"linkTL": {mutate: func(s *state) {
			s.linkTL(0).InsertBasic(linksched.Owner{Edge: 99, Leg: 0}, linksched.Request{ES: 500, PF: 500, Dur: 1})
		}},
		"linkTLSlack": {mutate: func(s *state) {
			lid := s.edges.routeAt(0, 0)
			sl := s.tl[lid].Slots()[0]
			s.linkTL(lid).SetSlack(sl.Owner, sl.Start, 42)
		}},
		"linkBW": {opts: Options{Engine: EngineBandwidth}, mutate: func(s *state) {
			s.linkBW(0).Alloc(linksched.Owner{Edge: 99, Leg: 0}, 500, 10, 1, 0)
		}},
		"procTL": {opts: Options{TaskPolicy: TaskInsertion}, mutate: func(s *state) {
			p := s.net.Processors()[0]
			s.procTL(p).InsertBasic(linksched.Owner{Edge: 99, Leg: -1}, linksched.Request{ES: 500, PF: 500, Dur: 1})
		}},
	}
	for name, r := range rows {
		t.Run(name, func(t *testing.T) {
			// a feeds b across the link and c on its own processor, so
			// edge 0 is scheduled and edge 1 holds no record.
			g := dag.New()
			a := g.AddTask("a", 1)
			b := g.AddTask("b", 1)
			c := g.AddTask("c", 1)
			g.AddEdge(a, b, 100)
			g.AddEdge(a, c, 100)
			net := network.Line(2, network.Uniform(1), network.Uniform(1))
			opts := r.opts
			opts.VerifyRollbackEvery = 1
			s := mkState(t, g, net, opts)
			p := net.Processors()
			for _, pl := range []struct {
				tid  dag.TaskID
				proc network.NodeID
			}{{a, p[0]}, {b, p[1]}, {c, p[0]}} {
				if _, err := s.placeTask(pl.tid, pl.proc); err != nil {
					t.Fatal(err)
				}
			}
			s.begin()
			r.mutate(s)
			if s.tx.fp.diff(s) == "" {
				t.Fatal("the mutator left the state unchanged")
			}
			defer func() {
				if err := recover(); err != nil {
					t.Fatal(err)
				}
			}()
			s.rollback()
		})
	}
}

// TestBeginReusesJournals pins the allocation fix: the six
// slice-backed journals are owned by the state and reused across
// transactions.
func TestBeginReusesJournals(t *testing.T) {
	g := dag.Chain(2, 1, 10)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{})
	p := net.Processors()
	if _, err := s.placeTask(0, p[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.probe(1, p[1]); err != nil {
		t.Fatal(err)
	}
	first := s.txFree
	if first == nil {
		t.Fatal("no reusable journal after the first probe")
	}
	if n := first.taskOld.size() + first.procOld.size() + first.edgeOld.size() +
		first.tlSnaps.size() + first.bwSnaps.size() + first.ptlSnaps.size(); n != 0 {
		t.Fatalf("rollback left %d journal entries behind", n)
	}
	allocs := testing.AllocsPerRun(20, func() {
		s.begin()
		s.rollback()
	})
	if allocs != 0 {
		t.Fatalf("empty transaction allocates %v times, want 0", allocs)
	}
	if s.txFree != first {
		t.Fatal("journal not reused across transactions")
	}
}

// TestProbeJournalingIsAllocationFree extends the journal-reuse pin
// from empty transactions to ones that journal real state: after one
// warm-up round has sized the journal value slots, a transaction that
// journals every timeline, a task and a processor clock — then rolls
// back — must not allocate. This pins the SnapshotInto buffer
// recycling: before it, every timeline journal allocated a fresh
// snapshot slot copy, the dominant allocation of the EFT probe loop.
func TestProbeJournalingIsAllocationFree(t *testing.T) {
	g := dag.Chain(4, 1, 10)
	net := network.Line(3, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{})
	p := net.Processors()
	if _, err := s.placeTask(0, p[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.placeTask(1, p[1]); err != nil {
		t.Fatal(err)
	}
	journalAll := func() {
		s.begin()
		for i := range s.tl {
			s.linkTL(network.LinkID(i))
		}
		s.setTask(1, s.tasks[1])
		s.setProcFinish(p[1], s.procFinish[p[1]])
		s.rollback()
	}
	journalAll() // warm up: allocate journal arrays and snapshot buffers
	if allocs := testing.AllocsPerRun(50, journalAll); allocs != 0 {
		t.Fatalf("journaling allocates %v times per transaction, want 0", allocs)
	}
}

// TestCallbackClosuresAreCached pins the relaxFunc caching: the
// relaxation closure is built once per state and parameterized through
// s.relaxEdgeCost, so the route-search hot path hands out callbacks
// without allocating a fresh capture per edge.
func TestCallbackClosuresAreCached(t *testing.T) {
	g := dag.Chain(3, 1, 100)
	net := network.Line(3, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{})
	e := g.Edge(0)
	s.relaxFunc(e) // warm up: build and cache the closure
	if allocs := testing.AllocsPerRun(50, func() {
		s.relaxFunc(e)
	}); allocs != 0 {
		t.Fatalf("cached callbacks allocate %v times per probe, want 0", allocs)
	}
	// The closure must read the per-call edge cost through the state,
	// not a stale capture.
	e2 := g.Edge(1)
	s.relaxFunc(e2)
	if s.relaxEdgeCost != e2.Cost {
		t.Fatalf("relaxEdgeCost %v, want %v", s.relaxEdgeCost, e2.Cost)
	}
}

// TestVerifyRollbackEverySamples pins the sampled oracle's cadence:
// with VerifyRollbackEvery=3, transactions 0, 3, 6, ... capture a
// fingerprint and the others must not.
func TestVerifyRollbackEverySamples(t *testing.T) {
	g := dag.Chain(2, 1, 10)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{VerifyRollbackEvery: 3})
	for i := 0; i < 9; i++ {
		s.begin()
		got := s.tx.fp != nil
		want := i%3 == 0
		if got != want {
			t.Fatalf("transaction %d: fingerprint captured = %v, want %v", i, got, want)
		}
		s.rollback()
	}
}

// TestVerifyRollbackEveryDetects arms the sampled oracle at N=1 (every
// transaction) via the sampling path and checks it still catches an
// un-journaled write — the sampled mode must lose cadence, not teeth.
func TestVerifyRollbackEveryDetects(t *testing.T) {
	g := dag.Chain(2, 1, 100)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{VerifyRollbackEvery: 1})
	p := net.Processors()
	if _, err := s.placeTask(0, p[0]); err != nil {
		t.Fatal(err)
	}
	s.begin()
	s.tl[0].InsertBasic(linksched.Owner{Edge: 7, Leg: 0}, linksched.Request{ES: 50, PF: 50, Dur: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("sampled rollback oracle missed an un-journaled write")
		}
	}()
	s.rollback()
}

func TestNestedTxnPanics(t *testing.T) {
	g := dag.Chain(2, 1, 1)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{})
	s.begin()
	defer func() {
		if recover() == nil {
			t.Fatal("nested begin did not panic")
		}
	}()
	s.begin()
}

func TestRollbackWithoutTxnIsNoop(t *testing.T) {
	g := dag.Chain(2, 1, 1)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{})
	s.rollback() // must not panic
}

func TestOrderedPreds(t *testing.T) {
	g := dag.New()
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	c := g.AddTask("c", 1)
	d := g.AddTask("d", 1)
	e1 := g.AddEdge(a, d, 10)
	e2 := g.AddEdge(b, d, 30)
	e3 := g.AddEdge(c, d, 20)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))

	s := mkState(t, g, net, Options{EdgeOrder: EdgeOrderFIFO})
	if got := s.orderedPreds(d); got[0] != e1 || got[1] != e2 || got[2] != e3 {
		t.Fatalf("fifo order %v", got)
	}
	s = mkState(t, g, net, Options{EdgeOrder: EdgeOrderDescCost})
	if got := s.orderedPreds(d); got[0] != e2 || got[1] != e3 || got[2] != e1 {
		t.Fatalf("desc order %v", got)
	}
	s = mkState(t, g, net, Options{EdgeOrder: EdgeOrderAscCost})
	if got := s.orderedPreds(d); got[0] != e1 || got[1] != e3 || got[2] != e2 {
		t.Fatalf("asc order %v", got)
	}
}

func TestSlackFuncMatchesPlacements(t *testing.T) {
	g := dag.Chain(2, 1, 100)
	net := network.Line(3, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{})
	p := net.Processors()
	if _, err := s.placeTask(0, p[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.placeTask(1, p[2]); err != nil {
		t.Fatal(err)
	}
	// The chain edge crosses two links.
	es := s.edgeView(0)
	if es == nil || len(es.Placements) != 2 {
		t.Fatalf("edge schedule %+v", es)
	}
	slack := s.slackOf
	// Last leg always has zero slack.
	if got := slack(linksched.Owner{Edge: 0, Leg: 1}); got != 0 {
		t.Fatalf("last-leg slack %v, want 0", got)
	}
	want := es.Placements[1].Start - es.Placements[0].Start
	if v := es.Placements[1].Finish - es.Placements[0].Finish; v < want {
		want = v
	}
	if got := slack(linksched.Owner{Edge: 0, Leg: 0}); got != want {
		t.Fatalf("slack %v, want %v", got, want)
	}
	// Unknown owner → zero slack.
	if got := slack(linksched.Owner{Edge: 0, Leg: 99}); got != 0 {
		t.Fatalf("out-of-range slack %v", got)
	}
}

func TestSelectByEstimatePrefersPredecessorProcessor(t *testing.T) {
	// One predecessor with a huge edge: the §4.1 criterion must keep
	// the successor on the predecessor's processor (comm term 0 there).
	g := dag.Chain(2, 10, 1000)
	net := network.Star(4, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{ProcSelect: ProcSelectEstimate})
	p := net.Processors()
	if _, err := s.placeTask(0, p[2]); err != nil {
		t.Fatal(err)
	}
	if got := s.selectByEstimate(1, true); got != p[2] {
		t.Fatalf("estimate chose %v, want predecessor's processor %v", got, p[2])
	}
	// The communication-blind variant just load-balances: processor 0
	// is idle and first, so it wins.
	if got := s.selectByEstimate(1, false); got == p[2] {
		t.Fatalf("nocomm variant unexpectedly stuck to the predecessor's processor")
	}
}

func TestTaskInsertionUsesGapWhiteBox(t *testing.T) {
	g := dag.New()
	a := g.AddTask("a", 10)
	b := g.AddTask("b", 10)
	c := g.AddTask("c", 5)
	g.AddEdge(a, b, 30)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	p := net.Processors()

	place := func(policy TaskPolicy) (bStart, cStart float64) {
		s := mkState(t, g, net, Options{TaskPolicy: policy})
		if _, err := s.placeTask(a, p[1]); err != nil { // a on P1: [0,10]
			t.Fatal(err)
		}
		if _, err := s.placeTask(b, p[0]); err != nil { // comm 30 → b on P0 at [40,50]
			t.Fatal(err)
		}
		if _, err := s.placeTask(c, p[0]); err != nil {
			t.Fatal(err)
		}
		return s.tasks[b].Start, s.tasks[c].Start
	}

	bs, cs := place(TaskAppend)
	if bs != 40 || cs != 50 {
		t.Fatalf("append: b at %v (want 40), c at %v (want 50)", bs, cs)
	}
	bs, cs = place(TaskInsertion)
	if bs != 40 || cs != 0 {
		t.Fatalf("insertion: b at %v (want 40), c at %v (want 0 — the gap)", bs, cs)
	}
}

func TestScheduleRejectsInvalidInputs(t *testing.T) {
	// Cyclic graph.
	g := dag.New()
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	g.AddEdge(a, b, 1)
	g.AddEdge(b, a, 1)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	if _, err := NewBA().Schedule(g, net); err == nil {
		t.Fatal("cyclic graph accepted")
	}
	// Disconnected network.
	g2 := dag.Chain(2, 1, 1)
	bad := network.NewTopology()
	bad.AddProcessor("a", 1)
	bad.AddProcessor("b", 1)
	if _, err := NewBA().Schedule(g2, bad); err == nil {
		t.Fatal("disconnected network accepted")
	}
	if _, err := NewClassic().Schedule(g, net); err == nil {
		t.Fatal("classic accepted cyclic graph")
	}
	if _, err := NewClassicReplay().Schedule(g, net); err == nil {
		t.Fatal("replay accepted cyclic graph")
	}
}
