package dag

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUShape(t *testing.T) {
	n := 4
	g := LU(n, 10, 5)
	// Tasks per step k: 1 diag + (n-1-k) row + (n-1-k) col + (n-1-k)^2 gemm.
	want := 0
	for k := 0; k < n; k++ {
		r := n - 1 - k
		want += 1 + 2*r + r*r
	}
	if g.NumTasks() != want {
		t.Fatalf("tasks %d, want %d", g.NumTasks(), want)
	}
	// A single source (the first getrf) and growing dependencies.
	if len(g.Sources()) != 1 {
		t.Fatalf("sources %d, want 1 (getrf0)", len(g.Sources()))
	}
}

func TestCholeskyShape(t *testing.T) {
	n := 4
	g := Cholesky(n, 10, 5)
	// potrf: n; trsm: sum(n-1-k) = n(n-1)/2; syrk: same; gemm: sum C(n-1-k, 2).
	want := n + n*(n-1)/2 + n*(n-1)/2
	for k := 0; k < n; k++ {
		r := n - 1 - k
		want += r * (r - 1) / 2
	}
	if g.NumTasks() != want {
		t.Fatalf("tasks %d, want %d", g.NumTasks(), want)
	}
	if len(g.Sources()) != 1 {
		t.Fatalf("sources %d, want 1 (potrf0)", len(g.Sources()))
	}
}

func TestDivideConquerShape(t *testing.T) {
	g := DivideConquer(3, 1, 2, 3, 4)
	// depth 3: 7 splits + 8 leaves + 7 merges.
	if g.NumTasks() != 22 {
		t.Fatalf("tasks %d, want 22", g.NumTasks())
	}
	if len(g.Sources()) != 1 || len(g.Sinks()) != 1 {
		t.Fatalf("sources/sinks %d/%d, want 1/1", len(g.Sources()), len(g.Sinks()))
	}
	// Depth 0 degenerates to a single leaf.
	if DivideConquer(0, 1, 2, 3, 4).NumTasks() != 1 {
		t.Fatal("depth-0 divide and conquer")
	}
}

func TestMapReduceShape(t *testing.T) {
	m, r := 4, 2
	g := MapReduce(m, r, 10, 20, 5)
	if g.NumTasks() != 2+m+r {
		t.Fatalf("tasks %d", g.NumTasks())
	}
	// Edges: m source->map + m*r shuffle + r reduce->sink.
	if g.NumEdges() != m+m*r+r {
		t.Fatalf("edges %d, want %d", g.NumEdges(), m+m*r+r)
	}
	// Every reducer has m predecessors.
	for _, task := range g.Tasks() {
		if len(task.Name) >= 6 && task.Name[:6] == "reduce" {
			if g.InDegree(task.ID) != m {
				t.Fatalf("reducer %s has %d preds, want %d", task.Name, g.InDegree(task.ID), m)
			}
		}
	}
}

func TestRandomSeriesParallelProperty(t *testing.T) {
	f := func(seed int64, d uint8) bool {
		r := rand.New(rand.NewSource(seed))
		depth := int(d % 6)
		g := RandomSeriesParallel(r, depth, CostDist{Lo: 1, Hi: 10}, CostDist{Lo: 1, Hi: 10})
		return g.NumTasks() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExtraGeneratorsSchedulable(t *testing.T) {
	// Smoke: all extra generators must at least topo-sort and produce
	// positive critical paths.
	r := rand.New(rand.NewSource(1))
	graphs := []*Graph{
		LU(3, 10, 10),
		Cholesky(3, 10, 10),
		DivideConquer(2, 1, 2, 3, 4),
		MapReduce(3, 2, 10, 20, 5),
		RandomSeriesParallel(r, 4, CostDist{Lo: 1, Hi: 10}, CostDist{Lo: 1, Hi: 10}),
	}
	for i, g := range graphs {
		if g.CriticalPathLength() <= 0 {
			t.Fatalf("graph %d: empty critical path", i)
		}
	}
}
