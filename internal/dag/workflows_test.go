package dag

import "testing"

func TestMontageShape(t *testing.T) {
	w := 5
	g := Montage(w, 10, 20)
	// Tasks: w projections + (w-1) diffs + fit + bg + w corrections + merge.
	want := w + (w - 1) + 1 + 1 + w + 1
	if g.NumTasks() != want {
		t.Fatalf("tasks %d, want %d", g.NumTasks(), want)
	}
	if len(g.Sources()) != w {
		t.Fatalf("sources %d, want %d projections", len(g.Sources()), w)
	}
	if len(g.Sinks()) != 1 {
		t.Fatalf("sinks %d, want 1 (mAdd)", len(g.Sinks()))
	}
	// Minimum width clamps to 2.
	if Montage(1, 1, 1).NumTasks() != Montage(2, 1, 1).NumTasks() {
		t.Fatal("width clamp broken")
	}
}

func TestEpigenomicsShape(t *testing.T) {
	g := Epigenomics(3, 4, 10, 20)
	if g.NumTasks() != 2+3*4 {
		t.Fatalf("tasks %d, want 14", g.NumTasks())
	}
	if len(g.Sources()) != 1 || len(g.Sinks()) != 1 {
		t.Fatalf("sources/sinks %d/%d", len(g.Sources()), len(g.Sinks()))
	}
	// Critical path: split + depth stages + merge, with edges.
	cp := g.CriticalPathLength()
	want := 6*10.0 + 5*20.0 // 6 tasks, 5 edges on the longest path
	if cp != want {
		t.Fatalf("critical path %v, want %v", cp, want)
	}
	// Degenerate parameters clamp to 1.
	if Epigenomics(0, 0, 1, 1).NumTasks() != 3 {
		t.Fatal("clamp broken")
	}
}

func TestWidth(t *testing.T) {
	if w := Chain(5, 1, 1).Width(); w != 1 {
		t.Fatalf("chain width %d, want 1", w)
	}
	if w := ForkJoin(6, 1, 1).Width(); w != 6 {
		t.Fatalf("fork-join width %d, want 6", w)
	}
	if w := Epigenomics(4, 3, 1, 1).Width(); w != 4 {
		t.Fatalf("epigenomics width %d, want 4", w)
	}
	if w := new(Graph).Width(); w != 0 {
		t.Fatalf("empty width %d", w)
	}
}
