package sched

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/linksched"
	"repro/internal/network"
)

// mkState binds a fresh state to g on net under opts for white-box
// tests.
func mkState(t *testing.T, g *dag.Graph, net *network.Topology, opts Options) *state {
	t.Helper()
	s := new(state)
	s.reset(g, net, opts)
	return s
}

// mustBuild builds b, failing the test on an error.
func mustBuild(t *testing.T, b *dag.Builder) *dag.Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// edgeView materializes the columnar store's record of one edge (nil if
// unscheduled) for white-box assertions against the public shape.
func (s *state) edgeView(id dag.EdgeID) *EdgeSchedule {
	return s.edges.materialize(s.g, s.tasks)[id]
}

func TestReadyTime(t *testing.T) {
	gb := new(dag.Builder)
	a := gb.AddTask("a", 10)
	b := gb.AddTask("b", 20)
	c := gb.AddTask("c", 1)
	gb.AddEdge(a, c, 5)
	gb.AddEdge(b, c, 5)
	g := mustBuild(t, gb)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{})
	p := ProcessorIDs(net)
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
	gb := new(dag.Builder)
	a := gb.AddTask("a", 1)
	b := gb.AddTask("b", 50)
	c := gb.AddTask("c", 1)
	ea := gb.AddEdge(a, c, 10)
	gb.AddEdge(b, c, 10)
	g := mustBuild(t, gb)
	net := network.Line(3, network.Uniform(1), network.Uniform(1))
	p := ProcessorIDs(net)

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
	before := s.captureFingerprint()
	// Tentatively place the next task on every processor and roll back.
	next := order[half]
	for pi := range net.NumProcessors() {
		p := net.Processor(pi)
		s.begin()
		if _, err := s.placeTask(next, p); err != nil {
			t.Fatal(err)
		}
		s.rollback()
		if d := before.diff(s); d != "" {
			t.Fatalf("rollback of the probe on %v left state changed: %s", p, d)
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
	if _, err := s.placeTask(order[0], net.Processor(0)); err != nil {
		t.Fatal(err)
	}
	segs := make([]int, len(s.bw))
	for i, bw := range s.bw {
		segs[i] = bw.NumSegments()
	}
	s.begin()
	if _, err := s.placeTask(order[1], net.Processor(1)); err != nil {
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
	p := ProcessorIDs(net)
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
	s := mkState(t, g, net, Options{})
	p := ProcessorIDs(net)
	if _, err := s.placeTask(0, p[0]); err != nil {
		t.Fatal(err)
	}
	before := s.captureFingerprint()

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
	if d := before.diff(s); d != "" {
		t.Fatalf("panicking probe left the state mutated: %s", d)
	}
	// The replica must still be usable: a later probe and commit work.
	if _, err := s.probe(1, p[1]); err != nil {
		t.Fatalf("probe after recovered panic: %v", err)
	}
	if _, err := s.placeTask(1, p[1]); err != nil {
		t.Fatalf("placement after recovered panic: %v", err)
	}
}

// TestRollbackOracleDetectsUnjournaledWrites pins the reach of the
// tests' rollback oracle, the fingerprint diff: a direct write to any
// journaled column, bypassing its journaling mutator, must give a diff
// that names the column. The probe and rollback tests compare
// fingerprints, so a column the diff did not see would be a column
// whose un-journaled writes no test catches.
func TestRollbackOracleDetectsUnjournaledWrites(t *testing.T) {
	corrupt := map[string]struct {
		opts   Options
		mutate func(s *state)
		want   string // a substring of the diff that names the column
	}{
		"task": {want: "task 0 placement", mutate: func(s *state) {
			s.tasks[0] = TaskPlacement{Task: 0, Proc: 0, Start: 1, Finish: 2}
		}},
		"processor": {want: "clock", mutate: func(s *state) {
			s.procFinish[0] += 5
		}},
		"edge": {want: "edge leg arena", mutate: func(s *state) {
			// In-place write of a committed leg record, bypassing
			// setLeg's copy-on-write — the span-level silent-rollback
			// hole.
			s.edges.legs[s.edges.meta[0].legs.off].start += 3
		}},
		"link": {want: "link 0 slot count", mutate: func(s *state) {
			s.tl[0].InsertBasic(linksched.Owner{Edge: 99, Leg: 0}, linksched.Request{ES: 500, PF: 500, Dur: 1})
		}},
		"slack": {want: "slack", mutate: func(s *state) {
			// A slack-column write that bypasses timeline.
			lid := s.edges.routeAt(0, 0)
			sl := s.tl[lid].Slots()[0]
			s.tl[lid].SetSlack(sl.Owner, sl.Start, 42)
		}},
		"bandwidth": {opts: Options{Engine: EngineBandwidth}, want: "bandwidth link 0", mutate: func(s *state) {
			s.bw[0].Alloc(linksched.Owner{Edge: 99, Leg: 0}, 500, 10, 1, 0)
		}},
		"proctimeline": {opts: Options{TaskPolicy: TaskInsertion}, want: "processor timeline", mutate: func(s *state) {
			p := s.net.Processor(0)
			s.tl[s.net.NumLinks()+int(p)].InsertBasic(linksched.Owner{Edge: 99, Leg: -1}, linksched.Request{ES: 500, PF: 500, Dur: 1})
		}},
		"duplicate": {opts: Options{Duplication: true}, want: "duplicates count", mutate: func(s *state) {
			// An append that bypasses addDup: rollback has no length
			// to truncate back to.
			s.dups = append(s.dups, TaskPlacement{Task: 0, Proc: s.net.Processor(0), Start: 7, Finish: 8})
		}},
	}
	for name, c := range corrupt {
		t.Run(name, func(t *testing.T) {
			g := dag.Chain(2, 1, 100)
			net := network.Line(2, network.Uniform(1), network.Uniform(1))
			s := mkState(t, g, net, c.opts)
			p := ProcessorIDs(net)
			if _, err := s.placeTask(0, p[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.placeTask(1, p[1]); err != nil {
				t.Fatal(err)
			}
			fp := s.captureFingerprint()
			c.mutate(s)
			if d := fp.diff(s); !strings.Contains(d, c.want) {
				t.Fatalf("diff %q does not name the written column (want %q)", d, c.want)
			}
		})
	}
}

// TestMutatorsRollBack drives every journaling mutator on committed
// state inside a transaction. Each write must change the state (so the
// row is not vacuous) and rollback must undo it exactly, or the
// fingerprint diff names the field: a mutator whose journal step is
// lost fails its row here, including the ones (sealEdge, clearEdge of
// a scheduled edge) that the schedulers only reach with the record
// already journaled.
func TestMutatorsRollBack(t *testing.T) {
	rows := map[string]struct {
		opts   Options
		mutate func(s *state)
	}{
		"setTask": {mutate: func(s *state) {
			s.setTask(2, TaskPlacement{Task: 2, Proc: s.net.Processor(1), Start: 7, Finish: 9})
		}},
		"setProcFinish": {mutate: func(s *state) {
			p := s.net.Processor(0)
			s.setProcFinish(p, s.procFinish[p]+5)
		}},
		"addDup": {opts: Options{Duplication: true}, mutate: func(s *state) {
			s.addDup(TaskPlacement{Task: 0, Proc: s.net.Processor(1), Start: 3, Finish: 4})
		}},
		"placeEdge": {mutate: func(s *state) {
			s.placeEdge(0, network.Route{s.edges.routeAt(0, 0)}, 3)
		}},
		"sealEdge": {mutate: func(s *state) {
			s.sealEdge(1) // the intra-processor edge holds no record yet
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
		// The linkTL and procTL rows write a link's and a processor's
		// entry of the tl column, both through timeline.
		"linkTL": {mutate: func(s *state) {
			s.timeline(0).InsertBasic(linksched.Owner{Edge: 99, Leg: 0}, linksched.Request{ES: 500, PF: 500, Dur: 1})
		}},
		"linkTLSlack": {mutate: func(s *state) {
			lid := s.edges.routeAt(0, 0)
			sl := s.tl[lid].Slots()[0]
			s.timeline(int(lid)).SetSlack(sl.Owner, sl.Start, 42)
		}},
		"linkBW": {opts: Options{Engine: EngineBandwidth}, mutate: func(s *state) {
			s.linkBW(0).Alloc(linksched.Owner{Edge: 99, Leg: 0}, 500, 10, 1, 0)
		}},
		"procTL": {opts: Options{TaskPolicy: TaskInsertion}, mutate: func(s *state) {
			p := s.net.Processor(0)
			s.timeline(s.net.NumLinks()+int(p)).InsertBasic(linksched.Owner{Edge: 99, Leg: -1}, linksched.Request{ES: 500, PF: 500, Dur: 1})
		}},
	}
	for name, r := range rows {
		t.Run(name, func(t *testing.T) {
			// a feeds b across the link and c on its own processor, so
			// edge 0 is scheduled and edge 1 holds no record.
			gb := new(dag.Builder)
			a := gb.AddTask("a", 1)
			b := gb.AddTask("b", 1)
			c := gb.AddTask("c", 1)
			gb.AddEdge(a, b, 100)
			gb.AddEdge(a, c, 100)
			g := mustBuild(t, gb)
			net := network.Line(2, network.Uniform(1), network.Uniform(1))
			s := mkState(t, g, net, r.opts)
			p := ProcessorIDs(net)
			for _, pl := range []struct {
				tid  dag.TaskID
				proc network.NodeID
			}{{a, p[0]}, {b, p[1]}, {c, p[0]}} {
				if _, err := s.placeTask(pl.tid, pl.proc); err != nil {
					t.Fatal(err)
				}
			}
			fp := s.captureFingerprint()
			s.begin()
			r.mutate(s)
			if fp.diff(s) == "" {
				t.Fatal("the mutator left the state unchanged")
			}
			s.rollback()
			if d := fp.diff(s); d != "" {
				t.Fatalf("incomplete rollback (un-journaled write?): %s", d)
			}
		})
	}
}

// TestBeginReusesJournals pins the allocation fix: the five
// slice-backed journals are owned by the state and reused across
// transactions.
func TestBeginReusesJournals(t *testing.T) {
	g := dag.Chain(2, 1, 10)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{})
	p := ProcessorIDs(net)
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
		first.tlSnaps.size() + first.bwSnaps.size(); n != 0 {
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
// back — must not allocate. This pins the recycling of the journal's
// timeline copies: state.timeline copies into the copy its value slot kept
// from an earlier transaction; without that, every timeline journal
// allocated fresh slab arrays, the dominant allocation of the EFT probe
// loop.
func TestProbeJournalingIsAllocationFree(t *testing.T) {
	g := dag.Chain(4, 1, 10)
	net := network.Line(3, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{})
	p := ProcessorIDs(net)
	if _, err := s.placeTask(0, p[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.placeTask(1, p[1]); err != nil {
		t.Fatal(err)
	}
	journalAll := func() {
		s.begin()
		for i := range s.tl {
			s.timeline(i)
		}
		s.setTask(1, s.tasks[1])
		s.setProcFinish(p[1], s.procFinish[p[1]])
		s.rollback()
	}
	journalAll() // warm up: allocate journal arrays and timeline copies
	if allocs := testing.AllocsPerRun(50, journalAll); allocs != 0 {
		t.Fatalf("journaling allocates %v times per transaction, want 0", allocs)
	}
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

// TestOrderedPreds pins the three edge orders, stable on equal costs,
// and that a warm state sorts without allocating.
func TestOrderedPreds(t *testing.T) {
	gb := new(dag.Builder)
	a := gb.AddTask("a", 1)
	b := gb.AddTask("b", 1)
	c := gb.AddTask("c", 1)
	x := gb.AddTask("x", 1)
	d := gb.AddTask("d", 1)
	e1 := gb.AddEdge(a, d, 10)
	e2 := gb.AddEdge(b, d, 30)
	e3 := gb.AddEdge(c, d, 20)
	e4 := gb.AddEdge(x, d, 20)
	g := mustBuild(t, gb)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))

	for _, c := range []struct {
		order EdgeOrder
		want  []dag.EdgeID
	}{
		{EdgeOrderFIFO, []dag.EdgeID{e1, e2, e3, e4}},
		{EdgeOrderDescCost, []dag.EdgeID{e2, e3, e4, e1}},
		{EdgeOrderAscCost, []dag.EdgeID{e1, e3, e4, e2}},
	} {
		s := mkState(t, g, net, Options{EdgeOrder: c.order})
		if got := s.orderedPreds(d); !slices.Equal(got, c.want) {
			t.Fatalf("order %v: %v, want %v", c.order, got, c.want)
		}
		if allocs := testing.AllocsPerRun(50, func() { s.orderedPreds(d) }); allocs != 0 {
			t.Fatalf("order %v: a warm orderedPreds allocates %v times, want 0", c.order, allocs)
		}
	}
}

func TestSlackFuncMatchesPlacements(t *testing.T) {
	g := dag.Chain(2, 1, 100)
	net := network.Line(3, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{})
	p := ProcessorIDs(net)
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
	p := ProcessorIDs(net)
	if _, err := s.placeTask(0, p[2]); err != nil {
		t.Fatal(err)
	}
	if got, start := s.selectByEstimate(1, true); got != p[2] || start != 10 {
		t.Fatalf("estimate chose %v at %v, want predecessor's processor %v at 10", got, start, p[2])
	}
	// The communication-blind variant just load-balances: processor 0
	// is idle and first, so it wins.
	if got, _ := s.selectByEstimate(1, false); got == p[2] {
		t.Fatalf("nocomm variant unexpectedly stuck to the predecessor's processor")
	}
}

func TestTaskInsertionUsesGapWhiteBox(t *testing.T) {
	gb := new(dag.Builder)
	a := gb.AddTask("a", 10)
	b := gb.AddTask("b", 10)
	c := gb.AddTask("c", 5)
	gb.AddEdge(a, b, 30)
	g := mustBuild(t, gb)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	p := ProcessorIDs(net)

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
	// A cyclic graph never reaches a scheduler: Build rejects it.
	var gb dag.Builder
	a := gb.AddTask("a", 1)
	b := gb.AddTask("b", 1)
	gb.AddEdge(a, b, 1)
	gb.AddEdge(b, a, 1)
	if _, err := gb.Build(); err != dag.ErrCycle {
		t.Fatalf("cyclic graph: %v, want dag.ErrCycle", err)
	}
	// Nor does a disconnected network: its Build fails.
	var nb network.Builder
	nb.AddProcessor("a", 1)
	nb.AddProcessor("b", 1)
	if net, err := nb.Build(); err == nil {
		t.Fatalf("disconnected network built: %v", net)
	}
}
