package edgesched_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	edgesched "repro"
)

func TestFacadeEndToEnd(t *testing.T) {
	gb := edgesched.NewGraph()
	a := gb.AddTask("a", 10)
	b := gb.AddTask("b", 20)
	c := gb.AddTask("c", 20)
	d := gb.AddTask("d", 10)
	gb.AddEdge(a, b, 15)
	gb.AddEdge(a, c, 15)
	gb.AddEdge(b, d, 15)
	gb.AddEdge(c, d, 15)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	net := edgesched.Star(3, edgesched.Uniform(1), edgesched.Uniform(1))
	for _, alg := range []edgesched.Algorithm{
		edgesched.BA(), edgesched.BASinnen(), edgesched.OIHSA(),
		edgesched.BBSA(), edgesched.ClassicReplay(),
	} {
		s, err := alg.Schedule(g, net)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if err := edgesched.Verify(s); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if s.Makespan < 60 { // critical path a+b+d = 40 plus any comm; serial = 60
			t.Logf("%s: makespan %.1f", alg.Name(), s.Makespan)
		}
	}
}

func TestFacadeExports(t *testing.T) {
	var buf bytes.Buffer
	g := edgesched.Diamond(5, 5)
	if err := edgesched.WriteDAGDOT(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") {
		t.Error("DAG DOT broken")
	}
	buf.Reset()
	net := edgesched.Ring(4, edgesched.Uniform(1), edgesched.Uniform(1))
	if err := edgesched.WriteTopologyDOT(&buf, net); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "graph topology") {
		t.Error("topology DOT broken")
	}

	s, err := edgesched.BA().Schedule(g, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := edgesched.Verify(s); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := edgesched.WriteGantt(&buf, s, 50, true); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := edgesched.WriteScheduleJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := edgesched.WriteScheduleCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeWorkloadAndFigure(t *testing.T) {
	inst := edgesched.GenerateInstance(edgesched.WorkloadParams{
		Processors: 4, CCR: 1, MinTasks: 30, MaxTasks: 30, Seed: 3,
	})
	if inst.Graph.NumTasks() != 30 || inst.Net.NumProcessors() != 4 {
		t.Fatalf("instance shape wrong")
	}
	sw, err := edgesched.Figure(1, edgesched.ExperimentConfig{
		Reps: 1, Seed: 1, MinTasks: 30, MaxTasks: 30,
		Procs: []int{4}, CCRs: []float64{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 1 {
		t.Fatalf("points %d", len(sw.Points))
	}
	full := edgesched.PaperConfig(false)
	if len(full.CCRs) != 19 {
		t.Fatalf("paper config CCRs %d", len(full.CCRs))
	}
}

func TestFacadeGenerators(t *testing.T) {
	graphs := []*edgesched.Graph{
		edgesched.Chain(4, 1, 1),
		edgesched.ForkJoin(3, 1, 1),
		edgesched.Diamond(1, 1),
		edgesched.InTree(2, 2, 1, 1),
		edgesched.OutTree(2, 2, 1, 1),
		edgesched.FFT(2, 1, 1),
		edgesched.GaussianElimination(4, 1, 1),
		edgesched.Laplace(3, 1, 1),
		edgesched.Stencil(3, 3, 1, 1),
	}
	for i, g := range graphs {
		if g.NumTasks() == 0 || len(g.TopoOrder()) != g.NumTasks() {
			t.Errorf("graph %d: %v", i, g)
		}
	}
	topos := []*edgesched.Topology{
		edgesched.FullyConnected(3, edgesched.Uniform(1), edgesched.Uniform(1)),
		edgesched.Line(3, edgesched.Uniform(1), edgesched.Uniform(1)),
		edgesched.Bus(3, edgesched.Uniform(1), 1),
		edgesched.Mesh2D(2, 2, edgesched.Uniform(1), edgesched.Uniform(1)),
		edgesched.Torus2D(3, 3, edgesched.Uniform(1), edgesched.Uniform(1)),
		edgesched.Hypercube(2, edgesched.Uniform(1), edgesched.Uniform(1)),
		edgesched.FatTree(2, 2, edgesched.Uniform(1), edgesched.Uniform(1)),
	}
	for i, top := range topos {
		if top.NumProcessors() == 0 || top.NumLinks() == 0 {
			t.Errorf("topology %d: %v", i, top)
		}
	}
}

// TestBuildersAtSmallestSize builds every topology builder at its
// smallest size, one processor for all but the two-cluster dumbbell,
// and requires BA to schedule a two-task chain on it validly.
func TestBuildersAtSmallestSize(t *testing.T) {
	one := edgesched.Uniform(1)
	g := edgesched.Chain(2, 10, 5)
	for name, build := range map[string]func() *edgesched.Topology{
		"FullyConnected": func() *edgesched.Topology { return edgesched.FullyConnected(1, one, one) },
		"Ring":           func() *edgesched.Topology { return edgesched.Ring(1, one, one) },
		"Line":           func() *edgesched.Topology { return edgesched.Line(1, one, one) },
		"Star":           func() *edgesched.Topology { return edgesched.Star(1, one, one) },
		"Bus":            func() *edgesched.Topology { return edgesched.Bus(1, one, 1) },
		"Mesh2D":         func() *edgesched.Topology { return edgesched.Mesh2D(1, 1, one, one) },
		"Torus2D":        func() *edgesched.Topology { return edgesched.Torus2D(1, 1, one, one) },
		"Hypercube":      func() *edgesched.Topology { return edgesched.Hypercube(0, one, one) },
		"FatTree":        func() *edgesched.Topology { return edgesched.FatTree(1, 1, one, one) },
		"RandomCluster": func() *edgesched.Topology {
			return edgesched.RandomCluster(rand.New(rand.NewSource(1)), edgesched.ClusterParams{Processors: 1})
		},
		"Torus3D":      func() *edgesched.Topology { return edgesched.Torus3D(1, 1, 1, one, one) },
		"SwitchTree":   func() *edgesched.Topology { return edgesched.SwitchTree(1, 0, 1, one, one) },
		"Dumbbell":     func() *edgesched.Topology { return edgesched.Dumbbell(1, 0, one, one, 1) },
		"Dragonfly":    func() *edgesched.Topology { return edgesched.Dragonfly(1, 1, one, one, one) },
		"ButterflyNet": func() *edgesched.Topology { return edgesched.ButterflyNet(0, one, one) },
	} {
		t.Run(name, func(t *testing.T) {
			net := build()
			s, err := edgesched.BA().Schedule(g, net)
			if err != nil {
				t.Fatalf("%v: %v", net, err)
			}
			if err := edgesched.Verify(s); err != nil {
				t.Fatalf("%v: %v", net, err)
			}
		})
	}
}

func TestFacadeCustomOptions(t *testing.T) {
	g := edgesched.Diamond(10, 10)
	net := edgesched.Line(2, edgesched.Uniform(1), edgesched.Uniform(1))
	alg := edgesched.Custom("mine", edgesched.Options{})
	s, err := alg.Schedule(g, net)
	if err != nil {
		t.Fatal(err)
	}
	if s.Algorithm != "mine" {
		t.Errorf("algorithm name %q", s.Algorithm)
	}
	if err := edgesched.Verify(s); err != nil {
		t.Fatal(err)
	}
}
