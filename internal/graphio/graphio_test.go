package graphio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
)

func TestGraphRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    40,
		TaskCost: dag.CostDist{Lo: 1, Hi: 100},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 100},
	})
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumTasks() != g.NumTasks() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape changed: %v vs %v", g2, g)
	}
	for i, task := range g.Tasks() {
		if g2.Tasks()[i] != task {
			t.Fatalf("task %d changed: %+v vs %+v", i, g2.Tasks()[i], task)
		}
	}
	for i, e := range g.Edges() {
		if g2.Edges()[i] != e {
			t.Fatalf("edge %d changed", i)
		}
	}
}

// TestReadGraphAllocs pins decode allocations at one per task (its
// name) plus a small constant: the graph is built into flat arrays, with
// no per-task adjacency slices.
func TestReadGraphAllocs(t *testing.T) {
	for _, n := range []int{150, 3000} {
		g := dag.RandomLayered(rand.New(rand.NewSource(1)), dag.RandomLayeredParams{
			Tasks:    n,
			TaskCost: dag.CostDist{Lo: 1, Hi: 50},
			EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
		})
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			t.Fatal(err)
		}
		body := buf.Bytes()
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := ReadGraph(bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(n + 100); allocs > limit {
			t.Errorf("%d tasks, %d edges: %v allocations per decode, want at most %v", n, g.NumEdges(), allocs, limit)
		}
	}
}

func TestGraphReadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"bad json":     `{`,
		"unknown keys": `{"tasks":[],"edges":[],"extra":1}`,
		"edge range":   `{"tasks":[{"name":"a","cost":1}],"edges":[{"from":0,"to":5,"cost":1}]}`,
		"self loop":    `{"tasks":[{"name":"a","cost":1}],"edges":[{"from":0,"to":0,"cost":1}]}`,
		"cycle": `{"tasks":[{"name":"a","cost":1},{"name":"b","cost":1}],
			"edges":[{"from":0,"to":1,"cost":1},{"from":1,"to":0,"cost":1}]}`,
		"negative cost": `{"tasks":[{"name":"a","cost":-5}],"edges":[]}`,
		"trailing data": `{"tasks":[],"edges":[]} garbage`,
		"two graphs":    `{"tasks":[{"name":"a","cost":1}]} {"tasks":[{"name":"b","cost":2}]}`,
	}
	for name, in := range cases {
		if _, err := ReadGraph(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTopologyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	top := network.RandomCluster(r, network.RandomClusterParams{
		Processors: 12,
		ProcSpeed:  network.UniformRange(r, 1, 10),
		LinkSpeed:  network.UniformRange(r, 1, 10),
	})
	var buf bytes.Buffer
	if err := WriteTopology(&buf, top); err != nil {
		t.Fatal(err)
	}
	top2, err := ReadTopology(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTopology(top2, top); err != nil {
		t.Fatalf("round trip changed the topology: %v", err)
	}
}

func TestTopologyBusRoundTrip(t *testing.T) {
	top := network.Bus(4, network.Uniform(2), 3)
	var buf bytes.Buffer
	if err := WriteTopology(&buf, top); err != nil {
		t.Fatal(err)
	}
	top2, err := ReadTopology(&buf)
	if err != nil {
		t.Fatal(err)
	}
	l := top2.Link(0)
	if !l.IsBus() || len(l.Members()) != 4 || l.Speed != 3 {
		t.Fatalf("bus lost in round trip: %+v", l)
	}
}

func TestTopologyDuplexShortcut(t *testing.T) {
	in := `{"nodes":[{"name":"a","kind":"processor","speed":1},
		{"name":"b","kind":"processor","speed":1}],
		"links":[{"from":0,"to":1,"duplex":true,"speed":2}]}`
	top, err := ReadTopology(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if top.NumLinks() != 2 {
		t.Fatalf("duplex shortcut produced %d links", top.NumLinks())
	}
}

func TestTopologyReadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"bad json":     `[`,
		"unknown kind": `{"nodes":[{"name":"x","kind":"router"}],"links":[]}`,
		"no speed":     `{"nodes":[{"name":"x","kind":"processor"}],"links":[]}`,
		"link range": `{"nodes":[{"name":"a","kind":"processor","speed":1}],
			"links":[{"from":0,"to":9,"speed":1}]}`,
		"self link": `{"nodes":[{"name":"a","kind":"processor","speed":1}],
			"links":[{"from":0,"to":0,"speed":1}]}`,
		"zero speed link": `{"nodes":[{"name":"a","kind":"processor","speed":1},
			{"name":"b","kind":"processor","speed":1}],
			"links":[{"from":0,"to":1,"speed":0}]}`,
		"single member bus": `{"nodes":[{"name":"a","kind":"processor","speed":1},
			{"name":"b","kind":"processor","speed":1}],
			"links":[{"members":[0],"speed":1}]}`,
		"bus member twice": `{"nodes":[{"name":"a","kind":"processor","speed":1},
			{"name":"b","kind":"processor","speed":1}],
			"links":[{"members":[0,1,0],"speed":1}]}`,
		"disconnected": `{"nodes":[{"name":"a","kind":"processor","speed":1},
			{"name":"b","kind":"processor","speed":1}],"links":[]}`,
		"trailing data": `{"nodes":[{"name":"a","kind":"processor","speed":1}],"links":[]} junk`,
		"self link after duplex": `{"nodes":[{"name":"a","kind":"processor","speed":1},
			{"name":"b","kind":"processor","speed":1}],
			"links":[{"from":0,"to":1,"duplex":true,"speed":1},{"from":1,"to":1,"speed":1}]}`,
	}
	// A link error names the document's links entry, which a duplex
	// entry's two links share.
	wants := map[string]string{
		"self link after duplex": "graphio: network: link 1 is a self-link on node 1",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadTopology(strings.NewReader(in))
			if err == nil {
				t.Fatal("accepted")
			}
			if want := wants[name]; !strings.Contains(err.Error(), want) {
				t.Errorf("error %q, want one naming %q", err, want)
			}
		})
	}
}
