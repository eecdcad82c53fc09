package dag

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// mustBuild builds b, failing the test on an error.
func mustBuild(t *testing.T, b *Builder) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddTaskAndEdge(t *testing.T) {
	var gb Builder
	a := gb.AddTask("a", 1)
	b := gb.AddTask("", 2)
	e := gb.AddEdge(a, b, 3)
	g := mustBuild(t, &gb)
	if g.NumTasks() != 2 || g.NumEdges() != 1 {
		t.Fatalf("counts: %d tasks %d edges", g.NumTasks(), g.NumEdges())
	}
	if g.Task(b).Name != "n1" {
		t.Errorf("auto name %q, want n1", g.Task(b).Name)
	}
	if ed := g.Edge(e); ed.From != a || ed.To != b || ed.Cost != 3 {
		t.Errorf("edge %+v", ed)
	}
	if len(g.Succ(a)) != 1 || len(g.Pred(b)) != 1 {
		t.Errorf("adjacency broken")
	}
	if g.InDegree(a) != 0 || len(g.Succ(a)) != 1 {
		t.Errorf("degrees broken")
	}
}

// TestBuildRejectsBadEndpoints pins that Build, not AddEdge, rejects an
// edge to a task that does not exist and a self-loop.
func TestBuildRejectsBadEndpoints(t *testing.T) {
	for _, e := range [][2]TaskID{{0, 0}, {0, 99}, {-1, 0}} {
		var b Builder
		b.AddTask("a", 1)
		b.AddEdge(e[0], e[1], 1)
		if _, err := b.Build(); err == nil {
			t.Errorf("edge %d->%d accepted", e[0], e[1])
		}
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	var gb Builder
	a := gb.AddTask("a", 1)
	b := gb.AddTask("b", 1)
	c := gb.AddTask("c", 1)
	gb.AddEdge(a, b, 1)
	gb.AddEdge(b, c, 1)
	gb.AddEdge(c, a, 1)
	if _, err := gb.Build(); err != ErrCycle {
		t.Fatalf("got %v, want ErrCycle", err)
	}
}

func TestValidateRejectsBadCosts(t *testing.T) {
	for _, c := range []struct{ task, edge float64 }{{-1, 1}, {1, math.NaN()}, {1e301, 1}, {1, math.Inf(1)}} {
		var b Builder
		b.AddEdge(b.AddTask("a", c.task), b.AddTask("b", 1), c.edge)
		if _, err := b.Build(); err == nil {
			t.Errorf("task cost %v, edge cost %v accepted", c.task, c.edge)
		}
	}
}

func TestValidateRejectsDuplicateEdge(t *testing.T) {
	var gb Builder
	a := gb.AddTask("a", 1)
	b := gb.AddTask("b", 1)
	gb.AddEdge(a, b, 1)
	gb.AddEdge(a, b, 2)
	if _, err := gb.Build(); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

// TestBuildKeepsEarlierGraphs pins that a builder that goes on adding
// leaves the graphs it built before unchanged.
func TestBuildKeepsEarlierGraphs(t *testing.T) {
	var b Builder
	x := b.AddTask("x", 1)
	first := mustBuild(t, &b)
	b.AddEdge(x, b.AddTask("y", 2), 3)
	second := mustBuild(t, &b)
	if first.NumTasks() != 1 || first.NumEdges() != 0 || len(first.Succ(x)) != 0 {
		t.Fatalf("first graph changed: %v", first)
	}
	if second.NumTasks() != 2 || len(second.Succ(x)) != 1 {
		t.Fatalf("second graph: %v", second)
	}
}

func TestTopoOrderDeterministicAndValid(t *testing.T) {
	g := Diamond(1, 1)
	order := g.TopoOrder()
	pos := map[TaskID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violates topo order", e.From, e.To)
		}
	}
}

func TestBottomLevelsChain(t *testing.T) {
	g := Chain(3, 10, 5) // bl: n2=10, n1=25, n0=40
	bl := g.BottomLevels()
	want := []float64{40, 25, 10}
	for i, w := range want {
		if bl[i] != w {
			t.Errorf("bl[%d]=%v, want %v", i, bl[i], w)
		}
	}
	if cp := g.CriticalPathLength(); cp != 40 {
		t.Errorf("critical path %v, want 40", cp)
	}
	if cp := g.CompCriticalPathLength(); cp != 30 {
		t.Errorf("computation-only critical path %v, want 30", cp)
	}
}

func TestTopLevelsChain(t *testing.T) {
	g := Chain(3, 10, 5) // tl: n0=0, n1=15, n2=30
	tl := g.TopLevels()
	want := []float64{0, 15, 30}
	for i, w := range want {
		if tl[i] != w {
			t.Errorf("tl[%d]=%v, want %v", i, tl[i], w)
		}
	}
}

func TestPriorityOrderIsTopological(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		g := RandomLayered(r, RandomLayeredParams{
			Tasks:    1 + r.Intn(120),
			TaskCost: CostDist{Lo: 0, Hi: 10}, // zero costs stress tie-breaking
			EdgeCost: CostDist{Lo: 0, Hi: 10},
		})
		order, err := g.PriorityOrder()
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != g.NumTasks() {
			t.Fatalf("order misses tasks")
		}
		pos := make([]int, g.NumTasks())
		for i, id := range order {
			pos[id] = i
		}
		bl := g.BottomLevels()
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("trial %d: priority order not topological on edge %d->%d", trial, e.From, e.To)
			}
		}
		for i := 1; i < len(order); i++ {
			// Bottom levels must be non-increasing only along comparable
			// pairs; globally we check the sort key ordering held.
			if bl[order[i-1]] < bl[order[i]]-1e-12 {
				t.Fatalf("trial %d: priority order not sorted by bottom level", trial)
			}
		}
	}
}

func TestAlternativePriorityOrdersAreTopological(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		g := RandomLayered(r, RandomLayeredParams{
			Tasks:    1 + r.Intn(100),
			TaskCost: CostDist{Lo: 0, Hi: 20},
			EdgeCost: CostDist{Lo: 0, Hi: 20},
		})
		for name, fn := range map[string]func() []TaskID{
			"comp": g.CompPriorityOrder,
			"crit": g.CriticalityPriorityOrder,
		} {
			order := fn()
			if len(order) != g.NumTasks() {
				t.Fatalf("%s: covers %d of %d tasks", name, len(order), g.NumTasks())
			}
			pos := make([]int, g.NumTasks())
			for i, id := range order {
				pos[id] = i
			}
			for _, e := range g.Edges() {
				if pos[e.From] >= pos[e.To] {
					t.Fatalf("%s: order not topological on edge %d->%d (trial %d)", name, e.From, e.To, trial)
				}
			}
		}
	}
}

// TestOrdersLeaveTopoOrder pins that every priority order sorts a copy
// of the stored topological order: concurrent schedules share it.
func TestOrdersLeaveTopoOrder(t *testing.T) {
	g := RandomLayered(rand.New(rand.NewSource(8)), RandomLayeredParams{
		Tasks:    200,
		TaskCost: CostDist{Lo: 1, Hi: 50},
		EdgeCost: CostDist{Lo: 1, Hi: 200},
	})
	want := slices.Clone(g.TopoOrder())
	if _, err := g.PriorityOrder(); err != nil {
		t.Fatal(err)
	}
	g.CompPriorityOrder()
	g.CriticalityPriorityOrder()
	if !slices.Equal(g.TopoOrder(), want) {
		t.Fatal("a priority order rewrote the graph's stored topological order")
	}
}

func TestCriticalityOrderPutsCriticalPathFirst(t *testing.T) {
	// Chain a->b->c plus a cheap independent task: the chain is the
	// critical path and must precede the cheap task.
	var gb Builder
	a := gb.AddTask("a", 100)
	b := gb.AddTask("b", 100)
	cheap := gb.AddTask("cheap", 1)
	gb.AddEdge(a, b, 10)
	order := mustBuild(t, &gb).CriticalityPriorityOrder()
	pos := map[TaskID]int{}
	for i, id := range order {
		pos[id] = i
	}
	if pos[cheap] < pos[a] || pos[cheap] < pos[b] {
		t.Fatalf("cheap off-path task ordered before the critical path: %v", order)
	}
}

func TestSourcesAndSinks(t *testing.T) {
	g := Diamond(1, 1)
	if s := g.Sources(); len(s) != 1 || s[0] != 0 {
		t.Errorf("sources %v", s)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != 3 {
		t.Errorf("sinks %v", s)
	}
}

func TestCCRAndScale(t *testing.T) {
	g := Chain(3, 10, 5)
	// mean task 10, mean edge 5 → CCR 0.5
	if got := g.CCR(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CCR=%v, want 0.5", got)
	}
	s, err := g.ScaleToCCR(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CCR(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("scaled CCR=%v, want 2", got)
	}
	if got := s.Edge(0).Cost; math.Abs(got-20) > 1e-12 {
		t.Fatalf("edge cost %v, want 20", got)
	}
	if g.Edge(0).Cost != 5 || len(s.Succ(0)) != 1 {
		t.Fatalf("scaling changed the original or lost the structure")
	}
	// A scaled cost past the bounds Build admits is an error.
	if _, err := g.ScaleToCCR(1e305); err == nil {
		t.Fatal("CCR 1e305 accepted")
	}
	// No-edge graph: CCR 0, scaling is a no-op.
	var b Builder
	b.AddTask("x", 5)
	g2 := mustBuild(t, &b)
	if g2.CCR() != 0 {
		t.Errorf("no-edge CCR should be 0")
	}
	if s, err := g2.ScaleToCCR(3); s != g2 || err != nil {
		t.Errorf("no-edge scaling: %v, %v", s, err)
	}
}

func TestString(t *testing.T) {
	g := Chain(2, 1, 1)
	if s := g.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestGeneratorShapes(t *testing.T) {
	cases := []struct {
		name          string
		g             *Graph
		tasks, edges  int
		sources, sink int
	}{
		{"chain", Chain(5, 1, 1), 5, 4, 1, 1},
		{"forkjoin", ForkJoin(3, 1, 1), 5, 6, 1, 1},
		{"diamond", Diamond(1, 1), 4, 4, 1, 1},
		{"outtree", OutTree(2, 3, 1, 1), 15, 14, 1, 8},
		{"intree", InTree(2, 3, 1, 1), 15, 14, 8, 1},
		{"fft8", FFT(3, 1, 1), 32, 48, 8, 8},
		{"laplace3", Laplace(3, 1, 1), 9, 12, 1, 1},
		{"stencil", Stencil(3, 4, 1, 1), 12, 20, 4, 4},
	}
	for _, c := range cases {
		if c.g.NumTasks() != c.tasks {
			t.Errorf("%s: %d tasks, want %d", c.name, c.g.NumTasks(), c.tasks)
		}
		if c.g.NumEdges() != c.edges {
			t.Errorf("%s: %d edges, want %d", c.name, c.g.NumEdges(), c.edges)
		}
		if got := len(c.g.Sources()); got != c.sources {
			t.Errorf("%s: %d sources, want %d", c.name, got, c.sources)
		}
		if got := len(c.g.Sinks()); got != c.sink {
			t.Errorf("%s: %d sinks, want %d", c.name, got, c.sink)
		}
	}
}

func TestGaussianEliminationShape(t *testing.T) {
	n := 5
	g := GaussianElimination(n, 1, 1)
	// n-1 pivots plus sum_{k=0}^{n-2}(n-1-k) updates.
	wantTasks := (n - 1) + (n-1)*n/2 - 0
	updates := 0
	for k := 0; k < n-1; k++ {
		updates += n - 1 - k
	}
	wantTasks = (n - 1) + updates
	if g.NumTasks() != wantTasks {
		t.Errorf("tasks %d, want %d", g.NumTasks(), wantTasks)
	}
	// Exactly one final sink (the last update of column n-1)?
	// The elimination ends with upd over column n-1 at step n-2; other
	// columns' last updates also have no successors. Just require ≥1
	// sink and a critical path of at least n-1 pivots.
	if cp := g.CriticalPathLength(); cp < float64(n-1) {
		t.Errorf("critical path %v too short", cp)
	}
}

func TestFFTDependencies(t *testing.T) {
	g := FFT(2, 1, 1) // 4 points, 3 rows of 4
	// Every non-first-row task must have exactly 2 predecessors.
	for _, task := range g.Tasks() {
		if task.ID < 4 {
			if g.InDegree(task.ID) != 0 {
				t.Errorf("row-0 task %d has predecessors", task.ID)
			}
			continue
		}
		if g.InDegree(task.ID) != 2 {
			t.Errorf("task %d has %d predecessors, want 2", task.ID, g.InDegree(task.ID))
		}
	}
}

func TestRandomLayeredProperty(t *testing.T) {
	f := func(seed int64, n uint16, fan uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tasks := int(n%800) + 1
		g := RandomLayered(r, RandomLayeredParams{
			Tasks:    tasks,
			TaskCost: CostDist{Lo: 1, Hi: 1000},
			EdgeCost: CostDist{Lo: 1, Hi: 1000},
			FanOut:   int(fan%6) + 1,
		})
		return g.NumTasks() == tasks && len(g.TopoOrder()) == tasks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCostDistSample(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := CostDist{Lo: 3, Hi: 7}
	seen := map[float64]bool{}
	for i := 0; i < 200; i++ {
		v := d.Sample(r)
		if v < 3 || v > 7 {
			t.Fatalf("sample %v outside [3,7]", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("expected all 5 values, saw %d", len(seen))
	}
	// Degenerate distribution.
	if v := (CostDist{Lo: 4, Hi: 4}).Sample(r); v != 4 {
		t.Errorf("degenerate sample %v", v)
	}
}
