package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/verify"
)

func sampleSchedule(t *testing.T, algo sched.Algorithm) *sched.Schedule {
	t.Helper()
	g := dag.ForkJoin(3, 10, 20)
	net := network.Star(3, network.Uniform(1), network.Uniform(1))
	return mustSchedule(t, algo, g, net)
}

// mustBuild builds b, failing the test on an error.
func mustBuild(t testing.TB, b *dag.Builder) *dag.Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustSchedule(t *testing.T, algo sched.Algorithm, g *dag.Graph, net *network.Topology) *sched.Schedule {
	t.Helper()
	s, err := algo.Schedule(g, net)
	if err != nil {
		t.Fatal(err)
	}
	if res := verify.Verify(s); !res.OK() {
		t.Fatalf("%s produced an invalid schedule: %v", algo.Name(), res.Err())
	}
	return s
}

func TestWriteGantt(t *testing.T) {
	s := sampleSchedule(t, sched.NewBA())
	var buf bytes.Buffer
	if err := WriteGantt(&buf, s, GanttOptions{Width: 60, Links: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for pi := range s.Net.NumProcessors() {
		p := s.Net.Processor(pi)
		if !strings.Contains(out, s.Net.Node(p).Name) {
			t.Errorf("gantt missing processor %s", s.Net.Node(p).Name)
		}
	}
	if !strings.Contains(out, "makespan") {
		t.Error("gantt missing makespan header")
	}
	if !strings.Contains(out, "#") {
		t.Error("gantt missing link occupation marks")
	}
	// Every row body must be exactly 60 cells wide.
	for _, line := range strings.Split(out, "\n") {
		if i := strings.IndexByte(line, '|'); i >= 0 {
			j := strings.LastIndexByte(line, '|')
			if j-i-1 != 60 {
				t.Errorf("row width %d, want 60: %q", j-i-1, line)
			}
		}
	}
}

func TestWriteGanttSharedBandwidthMarks(t *testing.T) {
	// A random instance big enough that BBSA certainly routes edges.
	r := rand.New(rand.NewSource(2))
	g := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    40,
		TaskCost: dag.CostDist{Lo: 1, Hi: 100},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 100},
	})
	net := network.Star(5, network.Uniform(1), network.Uniform(1))
	s := mustSchedule(t, sched.NewBBSA(), g, net)
	if s.CommStats().RoutedEdges == 0 {
		t.Skip("instance had no routed edges")
	}
	var buf bytes.Buffer
	if err := WriteGantt(&buf, s, GanttOptions{Width: 40, Links: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "L") {
		t.Error("no link rows rendered")
	}
}

func TestWriteGanttEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGantt(&buf, &sched.Schedule{}, GanttOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Errorf("unexpected output %q", buf.String())
	}
}

func TestWriteScheduleCSV(t *testing.T) {
	s := sampleSchedule(t, sched.NewBA())
	var buf bytes.Buffer
	if err := WriteScheduleCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "kind,id,resource,start,finish,detail" {
		t.Fatalf("header %q", lines[0])
	}
	var tasks, edges int
	for _, l := range lines[1:] {
		switch {
		case strings.HasPrefix(l, "task,"):
			tasks++
		case strings.HasPrefix(l, "edge,"), strings.HasPrefix(l, "chunk,"):
			edges++
		default:
			t.Errorf("unexpected row %q", l)
		}
	}
	if tasks != s.Graph.NumTasks() {
		t.Errorf("%d task rows, want %d", tasks, s.Graph.NumTasks())
	}
	if edges == 0 {
		t.Error("no edge rows")
	}
}

func TestWriteScheduleJSONRoundTrips(t *testing.T) {
	for _, algo := range []sched.Algorithm{sched.NewBA(), sched.NewBBSA()} {
		s := sampleSchedule(t, algo)
		var buf bytes.Buffer
		if err := WriteScheduleJSON(&buf, s); err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: invalid JSON: %v", algo.Name(), err)
		}
		if doc["algorithm"] != s.Algorithm {
			t.Errorf("algorithm %v", doc["algorithm"])
		}
		if doc["makespan"].(float64) != s.Makespan {
			t.Errorf("makespan %v", doc["makespan"])
		}
		if n := len(doc["tasks"].([]any)); n != s.Graph.NumTasks() {
			t.Errorf("tasks %d", n)
		}
	}
}

func TestWriteDAGDOT(t *testing.T) {
	g := dag.Diamond(5, 7)
	var buf bytes.Buffer
	if err := WriteDAGDOT(&buf, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "digraph tasks {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Fatalf("not a digraph: %q", out)
	}
	if strings.Count(out, "->") != g.NumEdges() {
		t.Errorf("edge count mismatch")
	}
}

func TestWriteTopologyDOT(t *testing.T) {
	top := network.Star(3, network.Uniform(2), network.Uniform(1))
	var buf bytes.Buffer
	if err := WriteTopologyDOT(&buf, top); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "graph topology {") {
		t.Fatalf("not a graph: %q", out)
	}
	// Duplex pairs render once: star of 3 has 3 cables.
	if got := strings.Count(out, " -- "); got != 3 {
		t.Errorf("%d cables rendered, want 3", got)
	}
	if !strings.Contains(out, "diamond") {
		t.Error("switch shape missing")
	}
}

func TestWriteTopologyDOTBus(t *testing.T) {
	top := network.Bus(3, network.Uniform(1), 2)
	var buf bytes.Buffer
	if err := WriteTopologyDOT(&buf, top); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hexagon") {
		t.Error("bus junction missing")
	}
}

func TestSanitizeID(t *testing.T) {
	if got := sanitizeID("P0-x.y z"); got != "P0_x_y_z" {
		t.Fatalf("sanitized %q", got)
	}
}

func TestWriteDAGDOTEdgeLabels(t *testing.T) {
	g := dag.Chain(3, 7, 13)
	var buf bytes.Buffer
	if err := WriteDAGDOT(&buf, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `label="13"`) {
		t.Errorf("edge cost label missing:\n%s", out)
	}
	if !strings.Contains(out, `label="n0\n7"`) {
		t.Errorf("task label missing:\n%s", out)
	}
}

func TestWriteScheduleCSVChunks(t *testing.T) {
	// BBSA emits chunk rows.
	r := rand.New(rand.NewSource(4))
	g := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    30,
		TaskCost: dag.CostDist{Lo: 1, Hi: 50},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
	})
	net := network.Star(5, network.Uniform(1), network.Uniform(1))
	s := mustSchedule(t, sched.NewBBSA(), g, net)
	if s.CommStats().RoutedEdges == 0 {
		t.Skip("no routed edges")
	}
	var buf bytes.Buffer
	if err := WriteScheduleCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "chunk,") {
		t.Error("no chunk rows for a bandwidth schedule")
	}
}
