package network

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// routerTopologies builds a varied set of shapes for equivalence tests,
// the last with two processors and no link between them.
func routerTopologies(r *rand.Rand) []*Topology {
	split := NewTopology()
	split.AddProcessor("a", 1)
	split.AddProcessor("b", 1)
	return []*Topology{
		Line(6, Uniform(1), Uniform(1)),
		Star(8, Uniform(1), Uniform(1)),
		Ring(7, Uniform(1), Uniform(1)),
		Mesh2D(3, 4, Uniform(1), Uniform(1)),
		FatTree(3, 3, Uniform(1), Uniform(1)),
		Bus(5, Uniform(1), 1),
		RandomCluster(r, RandomClusterParams{Processors: 12}),
		split,
	}
}

func TestRouterMatchesTopologyBFS(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for ti, top := range routerTopologies(r) {
		procs := top.Processors()
		router := top.NewRouter(NewRouteCache())
		warmed := top.NewRouter(NewRouteCache())
		warmed.Warm(procs)
		if n, want := warmed.CachedRoutes(), len(procs)*(len(procs)-1); n != want {
			t.Fatalf("topology %d: warming cached %d routes, want %d", ti, n, want)
		}
		for _, src := range procs {
			for _, dst := range procs {
				want, werr := top.BFSRoute(src, dst)
				// Twice: the second call must come from the cache and
				// still be identical; the warmed router answers both
				// from its cache.
				for pass := 0; pass < 4; pass++ {
					got, gerr := []*Router{router, warmed}[pass%2].BFSRoute(src, dst)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("topology %d %v->%v pass %d: err %v vs %v", ti, src, dst, pass, gerr, werr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("topology %d %v->%v pass %d: route %v, want %v", ti, src, dst, pass, got, want)
					}
					if werr == nil && src != dst {
						if err := top.ValidateRoute(src, dst, got); err != nil {
							t.Fatalf("topology %d: invalid route: %v", ti, err)
						}
					}
				}
			}
		}
	}
}

func TestRouterMatchesTopologyDijkstra(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	relax := func(l Link, cur Label) Label {
		return Label{Start: cur.Start, Finish: cur.Finish + 1/l.Speed}
	}
	for ti, top := range routerTopologies(r) {
		router := top.NewRouter(nil)
		procs := top.Processors()
		for _, src := range procs {
			for _, dst := range procs {
				want, wl, werr := top.DijkstraRoute(src, dst, Label{}, relax)
				got, gl, gerr := router.DijkstraRoute(src, dst, Label{}, relax)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("topology %d %v->%v: err %v vs %v", ti, src, dst, gerr, werr)
				}
				if !reflect.DeepEqual(got, want) || gl != wl {
					t.Fatalf("topology %d %v->%v: route %v label %+v, want %v %+v", ti, src, dst, got, gl, want, wl)
				}
			}
		}
	}
}

func TestRouterScratchSurvivesReuse(t *testing.T) {
	// Many searches on one Router must not corrupt each other: interleave
	// BFS and Dijkstra over all pairs twice and compare against fresh
	// routers.
	top := Mesh2D(4, 4, Uniform(1), Uniform(2))
	relax := func(l Link, cur Label) Label {
		return Label{Finish: cur.Finish + 1/l.Speed}
	}
	shared := top.NewRouter(nil)
	procs := top.Processors()
	for pass := 0; pass < 2; pass++ {
		for _, src := range procs {
			for _, dst := range procs {
				fresh := top.NewRouter(nil)
				wb, werr := fresh.BFSRoute(src, dst)
				gb, gerr := shared.BFSRoute(src, dst)
				if werr != nil || gerr != nil {
					t.Fatalf("bfs %v->%v: %v / %v", src, dst, werr, gerr)
				}
				if !reflect.DeepEqual(gb, wb) {
					t.Fatalf("bfs %v->%v diverged on reuse", src, dst)
				}
				wd, _, werr := fresh.DijkstraRoute(src, dst, Label{}, relax)
				gd, _, gerr := shared.DijkstraRoute(src, dst, Label{}, relax)
				if werr != nil || gerr != nil {
					t.Fatalf("dijkstra %v->%v: %v / %v", src, dst, werr, gerr)
				}
				if !reflect.DeepEqual(gd, wd) {
					t.Fatalf("dijkstra %v->%v diverged on reuse", src, dst)
				}
			}
		}
	}
}

// TestRouteCacheHitsAndEviction pins the memo's contract, one row per
// case: the second lookup of a pair is a hit that hands back the first
// lookup's route (the same backing array) or routing error, and a store
// at the cap empties the cache, which then refills with routes equal
// to a fresh BFS.
func TestRouteCacheHitsAndEviction(t *testing.T) {
	line := Line(8, Uniform(1), Uniform(1))
	lp := line.Processors()
	split := NewTopology() // two processors, no link
	a := split.AddProcessor("a", 1)
	b := split.AddProcessor("b", 1)
	for _, tc := range []struct {
		name     string
		top      *Topology
		src, dst NodeID
		full     bool // fill the cache to its cap first
	}{
		{name: "hit returns the same backing array", top: line, src: lp[0], dst: lp[5]},
		{name: "routing error is cached", top: split, src: a, dst: b},
		{name: "store at the cap empties the cache", top: line, src: lp[1], dst: lp[6], full: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := NewRouteCache()
			if tc.full {
				// Keys of nodes no topology has, so none is looked up.
				for i := 0; len(cache.routes) < routeCacheCap; i++ {
					cache.store(NodeID(-1-i), 0, nil, nil)
				}
			}
			router := tc.top.NewRouter(cache)
			want, werr := tc.top.BFSRoute(tc.src, tc.dst)
			first, ferr := router.BFSRoute(tc.src, tc.dst)
			if n := router.CachedRoutes(); n != 1 {
				t.Fatalf("cache holds %d routes after one lookup, want 1", n)
			}
			second, serr := router.BFSRoute(tc.src, tc.dst)
			if (werr == nil) != (ferr == nil) || !reflect.DeepEqual(first, want) {
				t.Fatalf("cached lookup gave %v (err %v), fresh BFS %v (err %v)", first, ferr, want, werr)
			}
			if werr != nil {
				if serr != ferr {
					t.Fatalf("second lookup's error %v is not the cached %v", serr, ferr)
				}
				return
			}
			if len(second) == 0 || &second[0] != &first[0] {
				t.Fatalf("second lookup %v does not share the cached route's array", second)
			}
		})
	}
}

// TestTopologyRoutesAfterGrowth pins that the Topology convenience
// searches route over the topology as it is at the call: a topology
// that gained nodes after an earlier search routes to them.
func TestTopologyRoutesAfterGrowth(t *testing.T) {
	relax := func(l Link, cur Label) Label {
		return Label{Start: cur.Finish, Finish: cur.Finish + 1/l.Speed}
	}
	top := NewTopology()
	a := top.AddProcessor("a", 1)
	b := top.AddProcessor("b", 1)
	top.AddDuplex(a, b, 1)
	if _, err := top.BFSRoute(a, b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := top.DijkstraRoute(a, b, Label{}, relax); err != nil {
		t.Fatal(err)
	}
	c := top.AddProcessor("c", 1)
	top.AddDuplex(b, c, 1)
	route, err := top.BFSRoute(a, c)
	if err != nil || len(route) != 2 {
		t.Fatalf("BFS a->c after growth: route %v, err %v; want 2 links", route, err)
	}
	route, _, err = top.DijkstraRoute(a, c, Label{}, relax)
	if err != nil || len(route) != 2 {
		t.Fatalf("Dijkstra a->c after growth: route %v, err %v; want 2 links", route, err)
	}
}

// TestDijkstraRoutesAreNeverCached pins the §4.3 contract: the modified
// Dijkstra relaxes over the current link state, so the same (src, dst)
// pair must be routed afresh on every call, even by a Router that has a
// route cache attached. Two relaxations that favour opposite branches of
// a diamond must get opposite routes.
func TestDijkstraRoutesAreNeverCached(t *testing.T) {
	top := NewTopology()
	a := top.AddProcessor("a", 1)
	b := top.AddProcessor("b", 1)
	up, down := top.AddSwitch("up"), top.AddSwitch("down")
	top.AddDuplex(a, up, 1)
	top.AddDuplex(up, b, 1)
	top.AddDuplex(a, down, 1)
	top.AddDuplex(down, b, 1)
	via := func(sw NodeID) RelaxFunc {
		return func(l Link, cur Label) Label {
			cost := 10.0
			if l.From == sw || l.To == sw {
				cost = 1
			}
			return Label{Start: cur.Finish, Finish: cur.Finish + cost}
		}
	}
	router := top.NewRouter(NewRouteCache())
	for pass := 0; pass < 2; pass++ {
		for _, sw := range []NodeID{up, down} {
			route, label, err := router.DijkstraRoute(a, b, Label{}, via(sw))
			if err != nil {
				t.Fatal(err)
			}
			if len(route) != 2 || top.Link(route[0]).To != sw {
				t.Fatalf("pass %d: route %v does not go through %s, the branch its relaxation favours",
					pass, route, top.Node(sw).Name)
			}
			if label.Finish != 2 {
				t.Fatalf("pass %d via %s: finish %v, want 2", pass, top.Node(sw).Name, label.Finish)
			}
		}
	}
}

// fuzzNet decodes a fuzz input into a topology and the per-link
// parameters of a relaxation. The shapes cover one-way links, parallel
// duplex links, buses, nodes wired to several switches and nodes no
// link reaches; link costs of 0, 1 or 2 and busy-until times of 0..3
// make zero-cost links and equal labels common, so the queue's node-ID
// tie-break is exercised.
type fuzzNet struct {
	top         *Topology
	cost, until []float64
	data        []byte
}

func (f *fuzzNet) next() int {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return int(b)
}

func newFuzzNet(data []byte) *fuzzNet {
	f := &fuzzNet{top: NewTopology(), data: data}
	n := 2 + f.next()%10
	for i := 0; i < n; i++ {
		if f.next()%3 == 0 {
			f.top.AddSwitch("")
		} else {
			f.top.AddProcessor("", 1)
		}
	}
	for m := f.next() % 24; m > 0; m-- {
		kind := f.next() % 8
		a, b, c := NodeID(f.next()%n), NodeID(f.next()%n), NodeID(f.next()%n)
		if a == b {
			continue
		}
		switch {
		case kind < 3:
			f.top.AddLink(a, b, 1)
		case kind < 6:
			f.top.AddDuplex(a, b, 1)
		case kind == 6: // parallel cables between the same pair
			f.top.AddDuplex(a, b, 1)
			f.top.AddDuplex(a, b, 1)
		case c != a && c != b:
			f.top.AddBus([]NodeID{a, b, c}, 1)
		}
	}
	for range f.top.Links() {
		f.cost = append(f.cost, float64(f.next()%3))
		f.until = append(f.until, float64(f.next()%4))
	}
	return f
}

// relax returns one of two relaxations, both monotone (a worse input
// label never yields a better output): store-and-forward on a link
// busy until until[l] (mode 0), or a fixed cost per link that keeps
// the start, so equal finishes are ordered by start (mode 1).
func (f *fuzzNet) relax(mode int, calls *int) RelaxFunc {
	return func(l Link, cur Label) Label {
		*calls++
		if mode == 1 {
			return Label{Start: cur.Start, Finish: cur.Finish + f.cost[l.ID]}
		}
		start := max(cur.Finish, f.until[l.ID])
		return Label{Start: start, Finish: start + f.cost[l.ID]}
	}
}

// FuzzDijkstraRoute requires the pruned Router.DijkstraRoute to find
// exactly what the unpruned reference finds — the same route, the same
// label bit for bit, the same error — with no more relax calls, over a
// sequence of searches on one Router.
func FuzzDijkstraRoute(f *testing.F) {
	// A star: switch 0, processors 1-3; every leaf is a dead end
	// once the switch is closed.
	f.Add([]byte{
		2, 0, 1, 1, 1, // 4 nodes
		3, 3, 0, 1, 0, 3, 0, 2, 0, 3, 0, 3, 0, // 3 duplex cables
		1, 0, 1, 1, 1, 0, 0, 0, 1, 2, 1, 0, // cost, until per link
		2, 1, 2, 0, 0, 0, 2, 3, 1, 1, 1, 3, 1, 0, 2, 0, // 3 searches: src, dst, mode, finish, start offset
	})
	// Switches 0 and 1, processors 2-4 (3 on both switches), a one-way
	// link, a bus, and a query from a switch.
	f.Add([]byte{
		3, 0, 0, 1, 1, 1, // 5 nodes
		7, 3, 0, 1, 0, 3, 0, 2, 0, 3, 0, 3, 0, 3, 1, 3, 0, 3, 1, 4, 0, 0, 2, 4, 0, 7, 2, 3, 4,
		0, 0, 1, 0, 0, 1, 1, 0, 2, 0, 0, 0, 1, 1, 0, 2, 1, 0, 0, 3, 0, 0, 2, 2,
		5, 2, 4, 0, 1, 0, 4, 2, 1, 1, 1, 3, 2, 0, 2, 0, 3, 2, 1, 0, 0, 0, 4, 0, 0, 1, 4, 3, 1, 2, 1,
	})
	f.Add([]byte{3, 1, 1, 1, 1, 0, 0, 1, 2, 3, 0, 0, 0, 2, 0, 1, 0, 2, 1}) // unreachable pairs
	f.Fuzz(func(t *testing.T, data []byte) {
		net := newFuzzNet(data)
		top, n := net.top, net.top.NumNodes()
		router := top.NewRouter(nil)
		for q := 1 + net.next()%16; q > 0; q-- {
			src, dst := NodeID(net.next()%n), NodeID(net.next()%n)
			mode, f0 := net.next()%2, float64(net.next()%3)
			init := Label{Start: f0 - float64(net.next()%2), Finish: f0}
			var got, want int
			route, label, err := router.DijkstraRoute(src, dst, init, net.relax(mode, &got))
			wroute, wlabel, werr := referenceDijkstraRoute(top, src, dst, init, net.relax(mode, &want))
			if !reflect.DeepEqual(err, werr) {
				t.Fatalf("%v->%v: error %v, reference %v", src, dst, err, werr)
			}
			if !slices.Equal(route, wroute) {
				t.Fatalf("%v->%v: route %v, reference %v", src, dst, route, wroute)
			}
			if math.Float64bits(label.Start) != math.Float64bits(wlabel.Start) ||
				math.Float64bits(label.Finish) != math.Float64bits(wlabel.Finish) || label.Hops != wlabel.Hops {
				t.Fatalf("%v->%v: label %+v, reference %+v", src, dst, label, wlabel)
			}
			if got > want {
				t.Fatalf("%v->%v: %d relax calls, reference %d", src, dst, got, want)
			}
		}
	})
}

// TestDijkstraRouteIsAllocationFree pins the noalloc claim on
// Router.DijkstraRoute at runtime: once the queue has grown, a search
// allocates nothing, its route included.
func TestDijkstraRouteIsAllocationFree(t *testing.T) {
	top := RandomCluster(rand.New(rand.NewSource(3)), RandomClusterParams{Processors: 32})
	router := top.NewRouter(nil)
	relax := func(l Link, cur Label) Label {
		return Label{Start: cur.Finish, Finish: cur.Finish + 10/l.Speed}
	}
	ps := top.Processors()
	search := func() {
		for i, src := range ps {
			if _, _, err := router.DijkstraRoute(src, ps[(i*7+3)%len(ps)], Label{}, relax); err != nil {
				t.Fatal(err)
			}
		}
	}
	search() // grow the queue
	if allocs := testing.AllocsPerRun(10, search); allocs != 0 {
		t.Fatalf("%v allocations per %d warm searches, want 0", allocs, len(ps))
	}
}

// TestRouterFitsOnlyItsTopologyAsBuilt pins Router.Fits: a Router fits
// the topology it was built for until that topology gains a node or a
// link, and never fits another.
func TestRouterFitsOnlyItsTopologyAsBuilt(t *testing.T) {
	net := Line(3, Uniform(1), Uniform(1))
	r := net.NewRouter(nil)
	if !r.Fits(net) {
		t.Fatal("a new Router does not fit its topology")
	}
	if r.Fits(Line(3, Uniform(1), Uniform(1))) {
		t.Fatal("a Router fits an equal but other topology")
	}
	net.AddLink(0, 2, 1)
	if r.Fits(net) {
		t.Fatal("a Router fits its topology after a link was added")
	}
	r = net.NewRouter(nil)
	net.AddSwitch("")
	if r.Fits(net) {
		t.Fatal("a Router fits its topology after a node was added")
	}
}
