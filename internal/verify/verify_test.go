package verify

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/sched"
)

// validSchedule builds a known-good schedule to corrupt in tests.
func validSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	r := rand.New(rand.NewSource(8))
	g := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    30,
		TaskCost: dag.CostDist{Lo: 1, Hi: 100},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 100},
	})
	net := network.RandomCluster(r, network.RandomClusterParams{
		Processors: 6, ProcSpeed: network.Uniform(1), LinkSpeed: network.Uniform(1)})
	s, err := sched.NewOIHSA().Schedule(g, net)
	if err != nil {
		t.Fatal(err)
	}
	if res := Verify(s); !res.OK() {
		t.Fatalf("baseline schedule invalid: %v", res.Err())
	}
	return s
}

// firstRouted returns the index of an edge that crosses the network.
func firstRouted(s *sched.Schedule) int {
	for i, es := range s.Edges {
		if es != nil && len(es.Placements) > 0 {
			return i
		}
	}
	return -1
}

func expectViolation(t *testing.T, s *sched.Schedule, rule string) {
	t.Helper()
	res := Verify(s)
	if res.OK() {
		t.Fatalf("corrupted schedule passed verification (expected %q violation)", rule)
	}
	for _, v := range res.Violations {
		if v.Rule == rule {
			return
		}
	}
	var got []string
	for _, v := range res.Violations {
		got = append(got, v.Rule)
	}
	t.Fatalf("expected %q violation, got %s", rule, strings.Join(got, ", "))
}

func TestVerifyValidSchedules(t *testing.T) {
	s := validSchedule(t)
	if res := Verify(s); !res.OK() {
		t.Fatal(res.Err())
	}
	if err := (&Result{}).Err(); err != nil {
		t.Fatal(err)
	}
}

func TestDetectsWrongMakespan(t *testing.T) {
	s := validSchedule(t)
	s.Makespan *= 2
	expectViolation(t, s, "makespan")
}

func TestDetectsTaskOnSwitch(t *testing.T) {
	s := validSchedule(t)
	// Find a switch node.
	for id := range network.NodeID(s.Net.NumNodes()) {
		if n := s.Net.Node(id); n.Kind == network.Switch {
			s.Tasks[0].Proc = n.ID
			break
		}
	}
	expectViolation(t, s, "placement")
}

func TestDetectsWrongExecutionTime(t *testing.T) {
	s := validSchedule(t)
	s.Tasks[0].Finish += 5
	expectViolation(t, s, "placement")
}

func TestDetectsProcessorOverlap(t *testing.T) {
	s := validSchedule(t)
	// Move every task of some processor to start at 0.
	proc := s.Tasks[0].Proc
	count := 0
	for i := range s.Tasks {
		if s.Tasks[i].Proc == proc {
			d := s.Tasks[i].Finish - s.Tasks[i].Start
			s.Tasks[i].Start = 0
			s.Tasks[i].Finish = d
			count++
		}
	}
	if count < 2 {
		t.Skip("need two tasks on one processor")
	}
	expectViolation(t, s, "processor")
}

func TestDetectsPrecedenceViolation(t *testing.T) {
	s := validSchedule(t)
	// Pick an edge and move its destination before the data arrives.
	i := firstRouted(s)
	if i < 0 {
		t.Skip("no routed edge")
	}
	to := s.Graph.Edge(dag.EdgeID(i)).To
	d := s.Tasks[to].Finish - s.Tasks[to].Start
	s.Tasks[to].Start = 0
	s.Tasks[to].Finish = d
	res := Verify(s)
	if res.OK() {
		t.Fatal("precedence violation not caught")
	}
}

func TestDetectsMissingEdgeSchedule(t *testing.T) {
	s := validSchedule(t)
	i := firstRouted(s)
	if i < 0 {
		t.Skip("no routed edge")
	}
	s.Edges[i] = nil
	expectViolation(t, s, "edge")
}

func TestDetectsCausalityViolation(t *testing.T) {
	s := validSchedule(t)
	// Find an edge with ≥ 2 legs and break the start monotonicity.
	for _, es := range s.Edges {
		if es == nil || len(es.Placements) < 2 {
			continue
		}
		es.Placements[1].Start = es.Placements[0].Start - 50
		es.Placements[1].Finish = es.Placements[0].Finish - 50
		expectViolation(t, s, "causality")
		return
	}
	t.Skip("no multi-leg edge")
}

func TestDetectsLinkOverlap(t *testing.T) {
	s := validSchedule(t)
	// Two placements forced onto the same link at the same time.
	var a, b *sched.EdgePlacement
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		for i := range es.Placements {
			p := &es.Placements[i]
			if a == nil {
				a = p
			} else if p != a {
				b = p
				break
			}
		}
		if b != nil {
			break
		}
	}
	if a == nil || b == nil {
		t.Skip("need two placements")
	}
	b.Link = a.Link
	b.Start = a.Start
	b.Finish = a.Finish
	res := Verify(s)
	if res.OK() {
		t.Fatal("link overlap not caught")
	}
}

func TestDetectsWrongVolume(t *testing.T) {
	s := validSchedule(t)
	i := firstRouted(s)
	if i < 0 {
		t.Skip("no routed edge")
	}
	pl := &s.Edges[i].Placements[0]
	pl.Finish += 10 // slot longer than c/s
	res := Verify(s)
	if res.OK() {
		t.Fatal("wrong slot duration not caught")
	}
}

func TestDetectsBadRoute(t *testing.T) {
	s := validSchedule(t)
	i := firstRouted(s)
	if i < 0 {
		t.Skip("no routed edge")
	}
	// Truncate the route: it no longer reaches the destination.
	es := s.Edges[i]
	if len(es.Route) < 2 {
		// Make the route start from the wrong place instead.
		es.SrcProc = es.DstProc
	}
	es.Route = es.Route[:len(es.Route)-1]
	es.Placements = es.Placements[:len(es.Placements)-1]
	expectViolation(t, s, "route")
}

func TestDetectsOversubscribedBandwidth(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    30,
		TaskCost: dag.CostDist{Lo: 1, Hi: 100},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 100},
	})
	net := network.RandomCluster(r, network.RandomClusterParams{
		Processors: 6, ProcSpeed: network.Uniform(1), LinkSpeed: network.Uniform(1)})
	s, err := sched.NewBBSA().Schedule(g, net)
	if err != nil {
		t.Fatal(err)
	}
	if res := Verify(s); !res.OK() {
		t.Fatalf("baseline BBSA schedule invalid: %v", res.Err())
	}
	// Inflate one chunk's rate beyond 1.
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		for li := range es.Placements {
			if len(es.Placements[li].Chunks) > 0 {
				es.Placements[li].Chunks[0].Rate = 1.5
				expectViolation(t, s, "capacity")
				return
			}
		}
	}
	t.Skip("no chunked placement")
}

func TestDetectsChunkVolumeMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := dag.Diamond(10, 50)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	_ = r
	s, err := sched.NewBBSA().Schedule(g, net)
	if err != nil {
		t.Fatal(err)
	}
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		for li := range es.Placements {
			if len(es.Placements[li].Chunks) > 0 {
				es.Placements[li].Chunks[0].Volume *= 0.5
				expectViolation(t, s, "volume")
				return
			}
		}
	}
	t.Skip("no chunked placement")
}

func TestVerifyIdealSchedule(t *testing.T) {
	g := dag.Diamond(10, 50)
	net := network.Line(3, network.Uniform(1), network.Uniform(1))
	s, err := sched.NewClassic().Schedule(g, net)
	if err != nil {
		t.Fatal(err)
	}
	if res := Verify(s); !res.OK() {
		t.Fatalf("ideal schedule invalid: %v", res.Err())
	}
	// Break ideal precedence.
	to := s.Graph.Edge(0).To
	d := s.Tasks[to].Finish - s.Tasks[to].Start
	s.Tasks[to].Start = 0
	s.Tasks[to].Finish = d
	res := Verify(s)
	if res.OK() {
		t.Fatal("ideal precedence violation not caught")
	}
}

func TestResultErrSummarizesCount(t *testing.T) {
	r := &Result{}
	r.addf("a", "first")
	r.addf("b", "second")
	err := r.Err()
	if err == nil || !strings.Contains(err.Error(), "1 more") {
		t.Fatalf("err %v", err)
	}
	if r.Violations[0].String() != "a: first" {
		t.Fatalf("violation string %q", r.Violations[0].String())
	}
}

func TestVerifyMissingGraph(t *testing.T) {
	res := Verify(&sched.Schedule{})
	if res.OK() {
		t.Fatal("schedule without graph accepted")
	}
}

func TestDetectsBogusDuplicate(t *testing.T) {
	// A schedule claiming an unscheduled cross-processor edge is
	// covered by a duplicate must have a real, timely duplicate.
	var gb dag.Builder
	src := gb.AddTask("src", 2)
	a := gb.AddTask("a", 10)
	b := gb.AddTask("b", 10)
	gb.AddEdge(src, a, 500)
	gb.AddEdge(src, b, 500)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	net := network.Star(2, network.Uniform(1), network.Uniform(1))
	opts := sched.NewOIHSA().Opts
	opts.Duplication = true
	s, err := sched.NewCustom("dup", opts).Schedule(g, net)
	if err != nil {
		t.Fatal(err)
	}
	if res := Verify(s); !res.OK() {
		t.Fatalf("baseline: %v", res.Err())
	}
	if len(s.Duplicates) == 0 {
		t.Fatalf("instance did not duplicate (placements: src=%d a=%d b=%d)",
			s.Tasks[src].Proc, s.Tasks[a].Proc, s.Tasks[b].Proc)
	}
	// Corrupt 1: duplicate finishes after the consumer starts.
	good := s.Duplicates[0]
	s.Duplicates[0].Start += 1e6
	s.Duplicates[0].Finish += 1e6
	if res := Verify(s); res.OK() {
		t.Fatal("late duplicate accepted")
	}
	s.Duplicates[0] = good
	// Corrupt 2: duplicate of a task with predecessors.
	s.Duplicates = append(s.Duplicates, sched.TaskPlacement{
		Task: a, Proc: s.Tasks[a].Proc, Start: 0, Finish: 10,
	})
	expectViolation(t, s, "placement")
	s.Duplicates = s.Duplicates[:1]
	// Corrupt 3: drop the duplicate entirely — the edge is uncovered.
	s.Duplicates = nil
	expectViolation(t, s, "edge")
}

// TestViolationsInIDOrder pins the order Verify reports in: processors,
// then links, each in ascending ID, the same on every call. Each of
// eight processors runs three overlapping tasks, and each of eight
// links carries two transfers at once.
func TestViolationsInIDOrder(t *testing.T) {
	const n = 8
	net := network.FullyConnected(n, network.Uniform(1), network.Uniform(1))
	gb := new(dag.Builder)
	for i := 0; i < 3*n; i++ {
		gb.AddTask(fmt.Sprintf("t%d", i), 10)
	}
	for i := 0; i < n; i++ {
		gb.AddEdge(dag.TaskID(i), dag.TaskID(n+i), 10)
		gb.AddEdge(dag.TaskID(i), dag.TaskID(2*n+i), 10)
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{Graph: g, Net: net, Tasks: make([]sched.TaskPlacement, 3*n),
		Edges: make([]*sched.EdgeSchedule, g.NumEdges()), Makespan: 15}
	for i := 0; i < n; i++ {
		src, dst := network.NodeID(i), network.NodeID((i+1)%n)
		s.Tasks[i] = sched.TaskPlacement{Task: dag.TaskID(i), Proc: src, Start: 0, Finish: 10}
		for _, k := range []int{n + i, 2*n + i} {
			s.Tasks[k] = sched.TaskPlacement{Task: dag.TaskID(k), Proc: dst, Start: 5, Finish: 15}
		}
		lid := network.LinkID(-1)
		for id := range network.LinkID(net.NumLinks()) {
			if l := net.Link(id); l.From == src && l.To == dst {
				lid = l.ID
			}
		}
		for _, eid := range g.Succ(dag.TaskID(i)) {
			s.Edges[eid] = &sched.EdgeSchedule{Edge: eid, SrcProc: src, DstProc: dst, Route: network.Route{lid},
				Placements: []sched.EdgePlacement{{Link: lid, Start: 10, Finish: 20}}, Base: 10, Arrival: 20}
		}
	}
	first := Verify(s).Violations
	var nodes, links []int
	for _, v := range first {
		var id int
		switch v.Rule {
		case "processor":
			if _, err := fmt.Sscanf(v.Msg[strings.Index(v.Msg, "on node"):], "on node %d", &id); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, id)
		case "capacity":
			if _, err := fmt.Sscanf(v.Msg, "link %d oversubscribed", &id); err != nil {
				t.Fatal(err)
			}
			links = append(links, id)
		}
	}
	if len(slices.Compact(slices.Clone(nodes))) != n || len(links) != n {
		t.Fatalf("overlaps on nodes %v and oversubscribed links %v, want %d of each", nodes, links, n)
	}
	if !slices.IsSorted(nodes) || !slices.IsSorted(links) {
		t.Fatalf("violations out of ID order: nodes %v, links %v", nodes, links)
	}
	for i := 0; i < 20; i++ {
		if got := Verify(s).Violations; !slices.Equal(got, first) {
			t.Fatalf("call %d reported\n%v\nafter\n%v", i, got, first)
		}
	}
}

// TestOutOfRangeIDsAreViolations pins that a schedule naming a node or
// a link the topology lacks gets violations, not a panic.
func TestOutOfRangeIDsAreViolations(t *testing.T) {
	s := validSchedule(t)
	s.Tasks[0].Proc = 99
	expectViolation(t, s, "placement")
	i := firstRouted(s)
	if i < 0 {
		t.Skip("no routed edge")
	}
	s.Edges[i].Placements[0].Link = 99
	expectViolation(t, s, "route")
}
