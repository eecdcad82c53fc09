package network

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddProcessorAndSwitch(t *testing.T) {
	top := NewTopology()
	p := top.AddProcessor("", 2)
	s := top.AddSwitch("")
	if top.NumNodes() != 2 || top.NumProcessors() != 1 {
		t.Fatalf("counts wrong: %v", top)
	}
	if n := top.Node(p); n.Kind != Processor || n.Speed != 2 || n.Name != "P0" {
		t.Errorf("processor %+v", n)
	}
	if n := top.Node(s); n.Kind != Switch || n.Name != "S1" {
		t.Errorf("switch %+v", n)
	}
	if Processor.String() != "processor" || Switch.String() != "switch" {
		t.Errorf("kind strings")
	}
}

func TestAddLinkPanics(t *testing.T) {
	top := NewTopology()
	a := top.AddProcessor("a", 1)
	for _, f := range []func(){
		func() { top.AddLink(a, a, 1) },
		func() { top.AddLink(a, 99, 1) },
		func() { top.AddLink(a, a+1, 0) },
		func() { top.AddBus([]NodeID{a}, 1) },
		func() { top.AddBus([]NodeID{a, a}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDuplexCreatesTwoLinks(t *testing.T) {
	top := NewTopology()
	a := top.AddProcessor("a", 1)
	b := top.AddProcessor("b", 1)
	f, r := top.AddDuplex(a, b, 3)
	if top.NumLinks() != 2 {
		t.Fatalf("links %d", top.NumLinks())
	}
	lf, lr := top.Link(f), top.Link(r)
	if lf.From != a || lf.To != b || lr.From != b || lr.To != a {
		t.Errorf("duplex endpoints wrong")
	}
	if lf.Speed != 3 || lr.Speed != 3 {
		t.Errorf("duplex speeds wrong")
	}
}

func TestValidateDisconnected(t *testing.T) {
	top := NewTopology()
	top.AddProcessor("a", 1)
	top.AddProcessor("b", 1)
	if err := top.Validate(); err == nil {
		t.Fatal("disconnected processors accepted")
	}
}

func TestValidateNoProcessors(t *testing.T) {
	top := NewTopology()
	top.AddSwitch("s")
	if err := top.Validate(); err == nil {
		t.Fatal("processor-less topology accepted")
	}
}

func TestMeanLinkSpeed(t *testing.T) {
	top := NewTopology()
	a := top.AddProcessor("a", 1)
	b := top.AddProcessor("b", 1)
	top.AddLink(a, b, 2)
	top.AddLink(b, a, 4)
	if got := top.MeanLinkSpeed(); got != 3 {
		t.Fatalf("MLS=%v, want 3", got)
	}
	if got := NewTopology().MeanLinkSpeed(); got != 1 {
		t.Fatalf("empty MLS=%v, want 1", got)
	}
}

func TestBFSRouteLine(t *testing.T) {
	top := Line(4, Uniform(1), Uniform(1))
	ps := top.Processors()
	route, err := top.NewRouter(nil).BFSRoute(ps[0], ps[3])
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 3 {
		t.Fatalf("route length %d, want 3", len(route))
	}
	if err := top.ValidateRoute(ps[0], ps[3], route); err != nil {
		t.Fatal(err)
	}
	// Self-route is empty.
	r0, err := top.NewRouter(nil).BFSRoute(ps[1], ps[1])
	if err != nil || len(r0) != 0 {
		t.Fatalf("self route %v, %v", r0, err)
	}
}

func TestBFSRouteNoPath(t *testing.T) {
	top := NewTopology()
	a := top.AddProcessor("a", 1)
	b := top.AddProcessor("b", 1)
	top.AddLink(a, b, 1) // one-way only
	if _, err := top.NewRouter(nil).BFSRoute(b, a); err == nil {
		t.Fatal("expected no-route error")
	} else if _, ok := err.(*ErrNoRoute); !ok {
		t.Fatalf("error type %T", err)
	}
}

func TestBFSRoutePrefersFewestHops(t *testing.T) {
	// Triangle a-b-c plus direct a-c: route a→c must be one hop.
	top := NewTopology()
	a := top.AddProcessor("a", 1)
	b := top.AddProcessor("b", 1)
	c := top.AddProcessor("c", 1)
	top.AddDuplex(a, b, 1)
	top.AddDuplex(b, c, 1)
	top.AddDuplex(a, c, 1)
	route, err := top.NewRouter(nil).BFSRoute(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 1 {
		t.Fatalf("route %v, want single hop", route)
	}
}

func TestDijkstraRoutePrefersFastPath(t *testing.T) {
	// a→c direct on a slow link vs a→b→c on fast links: for a large
	// transfer the two-hop fast path finishes earlier (cut-through:
	// finish ≈ max per-link time, not sum).
	top := NewTopology()
	a := top.AddProcessor("a", 1)
	b := top.AddProcessor("b", 1)
	c := top.AddProcessor("c", 1)
	top.AddLink(a, c, 1)  // slow direct
	top.AddLink(a, b, 10) // fast two-hop
	top.AddLink(b, c, 10)
	cost := 100.0
	relax := func(l Link, cur Label) Label {
		dur := cost / l.Speed
		start := cur.Start
		finish := start + dur
		if finish < cur.Finish {
			finish = cur.Finish
		}
		return Label{Start: start, Finish: finish}
	}
	route, label, err := top.NewRouter(nil).DijkstraRoute(a, c, Label{}, relax)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 2 {
		t.Fatalf("route %v, want the two-hop fast path", route)
	}
	if math.Abs(label.Finish-10) > 1e-9 {
		t.Fatalf("finish %v, want 10", label.Finish)
	}
}

func TestDijkstraEqualsBFSHopsOnUniformRelax(t *testing.T) {
	// With a relax that adds 1 per hop, Dijkstra minimizes hops and
	// must match BFS route lengths everywhere.
	r := rand.New(rand.NewSource(9))
	top := RandomCluster(r, RandomClusterParams{Processors: 20})
	relax := func(l Link, cur Label) Label {
		return Label{Start: cur.Start, Finish: cur.Finish + 1}
	}
	ps := top.Processors()
	for i := 0; i < 10; i++ {
		a, b := ps[r.Intn(len(ps))], ps[r.Intn(len(ps))]
		bfs, err := top.NewRouter(nil).BFSRoute(a, b)
		if err != nil {
			t.Fatal(err)
		}
		dij, _, err := top.NewRouter(nil).DijkstraRoute(a, b, Label{}, relax)
		if err != nil {
			t.Fatal(err)
		}
		if len(bfs) != len(dij) {
			t.Fatalf("hop counts differ: bfs %d, dijkstra %d", len(bfs), len(dij))
		}
	}
}

func TestRouteNodesRejectsBrokenRoute(t *testing.T) {
	top := Line(3, Uniform(1), Uniform(1))
	ps := top.Processors()
	route, err := top.NewRouter(nil).BFSRoute(ps[0], ps[2])
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the route: first link no longer departs from ps[0].
	rev := Route{route[1], route[0]}
	if err := top.ValidateRoute(ps[0], ps[2], rev); err == nil {
		t.Fatal("broken route accepted")
	}
	// Wrong destination.
	if err := top.ValidateRoute(ps[0], ps[1], route); err == nil {
		t.Fatal("wrong destination accepted")
	}
	// Non-empty self route.
	if err := top.ValidateRoute(ps[0], ps[0], route); err == nil {
		t.Fatal("non-empty self route accepted")
	}
	// Empty cross route.
	if err := top.ValidateRoute(ps[0], ps[2], Route{}); err == nil {
		t.Fatal("empty cross route accepted")
	}
}

func TestBusRouting(t *testing.T) {
	top := Bus(3, Uniform(1), 2)
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	ps := top.Processors()
	route, err := top.NewRouter(nil).BFSRoute(ps[0], ps[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 1 || !top.Link(route[0]).IsBus() {
		t.Fatalf("bus route %v", route)
	}
	if err := top.ValidateRoute(ps[0], ps[2], route); err != nil {
		t.Fatal(err)
	}
	if err := top.ValidateRoute(ps[0], ps[2], Route{route[0], 99}); err == nil {
		t.Fatal("route through a missing link accepted")
	}
}

func TestBuilderShapes(t *testing.T) {
	cases := []struct {
		name         string
		top          *Topology
		procs, links int
	}{
		{"fully4", FullyConnected(4, Uniform(1), Uniform(1)), 4, 12},
		{"ring5", Ring(5, Uniform(1), Uniform(1)), 5, 10},
		{"line4", Line(4, Uniform(1), Uniform(1)), 4, 6},
		{"star3", Star(3, Uniform(1), Uniform(1)), 3, 6},
		{"bus4", Bus(4, Uniform(1), 1), 4, 1},
		{"mesh23", Mesh2D(2, 3, Uniform(1), Uniform(1)), 6, 14},
		{"hyper3", Hypercube(3, Uniform(1), Uniform(1)), 8, 24},
		{"fattree", FatTree(2, 3, Uniform(1), Uniform(1)), 6, 16},
	}
	for _, c := range cases {
		if err := c.top.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if c.top.NumProcessors() != c.procs {
			t.Errorf("%s: %d procs, want %d", c.name, c.top.NumProcessors(), c.procs)
		}
		if c.top.NumLinks() != c.links {
			t.Errorf("%s: %d links, want %d", c.name, c.top.NumLinks(), c.links)
		}
	}
}

func TestTorusWraparound(t *testing.T) {
	top := Torus2D(3, 3, Uniform(1), Uniform(1))
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mesh 3x3 has 2*(2*3 + 3*2) = 24 directed links; torus adds
	// 2*3 + 2*3 duplex wraparounds = 12 more.
	if top.NumLinks() != 36 {
		t.Fatalf("links %d, want 36", top.NumLinks())
	}
	// Opposite corner reachable in ≤ 2 hops thanks to wraparound.
	route, err := top.NewRouter(nil).BFSRoute(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) > 2 {
		t.Fatalf("torus route %d hops, want ≤2", len(route))
	}
}

func TestRandomClusterProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		procs := int(n%120) + 1
		top := RandomCluster(r, RandomClusterParams{Processors: procs})
		if top.NumProcessors() != procs {
			return false
		}
		if top.Validate() != nil {
			return false
		}
		// Every processor hangs off exactly one switch (one duplex pair).
		for _, p := range top.Processors() {
			if len(top.Neighbors(p)) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomClusterPerSwitchBounds(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	top := RandomCluster(r, RandomClusterParams{Processors: 100, MinPerSW: 4, MaxPerSW: 16})
	perSwitch := map[NodeID]int{}
	for _, p := range top.Processors() {
		sw := top.Neighbors(p)[0].To
		if top.Node(sw).Kind != Switch {
			t.Fatalf("processor %d not attached to a switch", p)
		}
		perSwitch[sw]++
	}
	for sw, n := range perSwitch {
		if n > 16 {
			t.Errorf("switch %d hosts %d processors (max 16)", sw, n)
		}
	}
}

func TestUniformRangeBounds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	fn := UniformRange(r, 1, 10)
	for i := 0; i < 100; i++ {
		v := fn()
		if v < 1 || v > 10 || v != math.Trunc(v) {
			t.Fatalf("speed %v outside integer U(1,10)", v)
		}
	}
	if v := UniformRange(r, 5, 5)(); v != 5 {
		t.Fatalf("degenerate UniformRange %v", v)
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	top := Star(3, Uniform(1), Uniform(1))
	// Hub has 3 outgoing links, each processor 1 to the hub.
	for _, n := range top.Nodes() {
		hops := top.Neighbors(n.ID)
		want := 1
		if n.Kind == Switch {
			want = 3
		}
		if len(hops) != want {
			t.Errorf("node %d has %d neighbors, want %d", n.ID, len(hops), want)
		}
		for _, h := range hops {
			if l := top.Link(h.Link); l.From != n.ID || l.To != h.To {
				t.Errorf("node %d: hop %+v does not match link %+v", n.ID, h, l)
			}
		}
	}
}

func TestLabelLess(t *testing.T) {
	a := Label{Start: 1, Finish: 5, Hops: 2}
	b := Label{Start: 0, Finish: 6, Hops: 1}
	if !a.Less(b) || b.Less(a) {
		t.Errorf("finish should dominate")
	}
	c := Label{Start: 0, Finish: 5, Hops: 9}
	if !c.Less(a) {
		t.Errorf("start should break finish ties")
	}
	d := Label{Start: 1, Finish: 5, Hops: 1}
	if !d.Less(a) {
		t.Errorf("hops should break remaining ties")
	}
}
