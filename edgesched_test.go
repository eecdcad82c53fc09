package edgesched_test

import (
	"bytes"
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
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
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
		if err := top.Validate(); err != nil {
			t.Errorf("topology %d: %v", i, err)
		}
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
