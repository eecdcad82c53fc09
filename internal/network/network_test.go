package network

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// mustBuild returns b's topology, failing the test on a Build error.
func mustBuild(t testing.TB, b *Builder) *Topology {
	t.Helper()
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestAddProcessorAndSwitch(t *testing.T) {
	b := new(Builder)
	p := b.AddProcessor("", 2)
	s := b.AddSwitch("")
	top := mustBuild(t, b)
	if top.NumNodes() != 2 || top.NumProcessors() != 1 || top.Processor(0) != p {
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

// TestBuildRejectsBadInput requires Build to reject each input it
// checks, naming the offending node or link (a link by its entry).
func TestBuildRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		add        func(b *Builder, a, c NodeID)
	}{
		{"self-link", "link 1 is a self-link", func(b *Builder, a, _ NodeID) { b.AddLink(a, a, 1) }},
		{"endpoint outside", "link 1 (0->99)", func(b *Builder, a, _ NodeID) { b.AddLink(a, 99, 1) }},
		{"negative endpoint", "link 1 (-1->0)", func(b *Builder, a, _ NodeID) { b.AddLink(-1, a, 1) }},
		{"zero link speed", "link 1 has non-positive speed 0", func(b *Builder, a, c NodeID) { b.AddLink(a, c, 0) }},
		{"NaN link speed", "link 1 has non-positive speed NaN", func(b *Builder, a, c NodeID) { b.AddLink(a, c, math.NaN()) }},
		{"one-member bus", "bus 1 needs at least two members", func(b *Builder, a, _ NodeID) { b.AddBus([]NodeID{a}, 1) }},
		{"empty bus", "bus 1 needs at least two members", func(b *Builder, _, _ NodeID) { b.AddBus(nil, 1) }},
		{"bus member twice", "bus 1 lists node 0 twice", func(b *Builder, a, c NodeID) { b.AddBus([]NodeID{a, c, a}, 1) }},
		{"bus member outside", "bus 1 lists node 7 outside", func(b *Builder, a, _ NodeID) { b.AddBus([]NodeID{a, 7}, 1) }},
		{"zero processor speed", "processor 2 (z) has non-positive speed 0", func(b *Builder, _, _ NodeID) { b.AddProcessor("z", 0) }},
		{"unreachable processor", "processor 0 (a) cannot reach processor 2 (P2)", func(b *Builder, a, _ NodeID) {
			b.AddLink(b.AddProcessor("", 1), a, 1)
		}},
		{"processor reaching no other", "processor 2 (P2) cannot reach processor 0 (a)", func(b *Builder, a, _ NodeID) {
			b.AddLink(a, b.AddProcessor("", 1), 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := new(Builder)
			a, c := b.AddProcessor("a", 1), b.AddProcessor("c", 1)
			b.AddDuplex(a, c, 1) // links 0 and 1, entry 0
			tc.add(b, a, c)      // a bad link is link 2, entry 1
			if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build error %v, want one naming %q", err, tc.want)
			}
		})
	}
}

func TestDuplexCreatesTwoLinks(t *testing.T) {
	bld := new(Builder)
	a := bld.AddProcessor("a", 1)
	b := bld.AddProcessor("b", 1)
	f, r := bld.AddDuplex(a, b, 3)
	top := mustBuild(t, bld)
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
	b := new(Builder)
	b.AddProcessor("a", 1)
	b.AddProcessor("b", 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("disconnected processors accepted")
	}
}

func TestValidateNoProcessors(t *testing.T) {
	b := new(Builder)
	b.AddSwitch("s")
	if _, err := b.Build(); err == nil {
		t.Fatal("processor-less topology accepted")
	}
}

func TestMeanLinkSpeed(t *testing.T) {
	bld := new(Builder)
	a := bld.AddProcessor("a", 1)
	b := bld.AddProcessor("b", 1)
	bld.AddLink(a, b, 2)
	bld.AddLink(b, a, 4)
	if got := mustBuild(t, bld).MeanLinkSpeed(); got != 3 {
		t.Fatalf("MLS=%v, want 3", got)
	}
	one := new(Builder)
	one.AddProcessor("a", 1)
	if got := mustBuild(t, one).MeanLinkSpeed(); got != 1 {
		t.Fatalf("link-free MLS=%v, want 1", got)
	}
}

func TestBFSRouteLine(t *testing.T) {
	top := Line(4, Uniform(1), Uniform(1))
	ps := top.procs
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

// TestBFSRouteNoPath routes to a switch that only sends: Build admits
// it, since every processor still reaches every other.
func TestBFSRouteNoPath(t *testing.T) {
	bld := new(Builder)
	a := bld.AddProcessor("a", 1)
	sw := bld.AddSwitch("s")
	bld.AddLink(sw, a, 1) // one-way only
	if _, err := mustBuild(t, bld).NewRouter(nil).BFSRoute(a, sw); err == nil {
		t.Fatal("expected no-route error")
	} else if _, ok := err.(*ErrNoRoute); !ok {
		t.Fatalf("error type %T", err)
	}
}

func TestBFSRoutePrefersFewestHops(t *testing.T) {
	// Triangle a-b-c plus direct a-c: route a→c must be one hop.
	bld := new(Builder)
	a := bld.AddProcessor("a", 1)
	b := bld.AddProcessor("b", 1)
	c := bld.AddProcessor("c", 1)
	bld.AddDuplex(a, b, 1)
	bld.AddDuplex(b, c, 1)
	bld.AddDuplex(a, c, 1)
	top := mustBuild(t, bld)
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
	bld := new(Builder)
	a := bld.AddProcessor("a", 1)
	b := bld.AddProcessor("b", 1)
	c := bld.AddProcessor("c", 1)
	bld.AddLink(a, c, 1)  // slow direct
	bld.AddLink(a, b, 10) // fast two-hop
	bld.AddLink(b, c, 10)
	bld.AddLink(c, a, 1) // the way back
	top := mustBuild(t, bld)
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
	ps := top.procs
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
	ps := top.procs
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
	ps := top.procs
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
		// Every processor hangs off exactly one switch (one duplex pair).
		out := outLinks(top)
		for _, p := range top.procs {
			if len(out[p]) != 1 {
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
	out := outLinks(top)
	for _, p := range top.procs {
		sw := out[p][0].To
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

// outLinks groups top's point-to-point links by the node they leave,
// in link ID order.
func outLinks(top *Topology) [][]Link {
	out := make([][]Link, top.NumNodes())
	for id := range LinkID(top.NumLinks()) {
		if l := top.Link(id); !l.IsBus() {
			out[l.From] = append(out[l.From], l)
		}
	}
	return out
}

func TestDegreesAndNeighbors(t *testing.T) {
	top := Star(3, Uniform(1), Uniform(1))
	// Hub has 3 outgoing links, each processor 1 to the hub.
	for id, ls := range outLinks(top) {
		n := top.Node(NodeID(id))
		want := 1
		if n.Kind == Switch {
			want = 3
		}
		if len(ls) != want {
			t.Errorf("node %d has %d neighbors, want %d", id, len(ls), want)
		}
		for _, l := range ls {
			if (top.Node(l.To).Kind == Switch) == (n.Kind == Switch) {
				t.Errorf("node %d: link %+v does not join a processor and the hub", id, l)
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
