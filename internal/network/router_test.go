package network

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// routerTopologies builds a varied set of shapes for equivalence tests,
// the last with unroutable pairs: two processors beside a switch that
// only sends to one of them and a switch no link reaches.
func routerTopologies(r *rand.Rand) []*Topology {
	return []*Topology{
		Line(6, Uniform(1), Uniform(1)),
		Star(8, Uniform(1), Uniform(1)),
		Ring(7, Uniform(1), Uniform(1)),
		Mesh2D(3, 4, Uniform(1), Uniform(1)),
		FatTree(3, 3, Uniform(1), Uniform(1)),
		Bus(5, Uniform(1), 1),
		RandomCluster(r, RandomClusterParams{Processors: 12}),
		splitTopology(),
	}
}

// splitTopology is routerTopologies' last shape. Build admits it: every
// processor still reaches every other.
func splitTopology() *Topology {
	b := new(Builder)
	p, q, sender := b.AddProcessor("p", 1), b.AddProcessor("q", 1), b.AddSwitch("sender")
	b.AddSwitch("island")
	b.AddDuplex(p, q, 1)
	b.AddLink(sender, q, 1)
	top, err := b.Build()
	if err != nil {
		panic(err)
	}
	return top
}

// nodeIDs returns every node of top in ID order.
func nodeIDs(top *Topology) []NodeID {
	ids := make([]NodeID, top.NumNodes())
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return ids
}

// TestRouterMatchesTopologyBFS requires Router.BFSRoute to find the
// reference's route, or its error, for every ordered pair of nodes,
// on the pass that grows the source's tree and on later passes that
// unwind from it. Each pass walks the sources in another order, so a
// tree is grown amid other sources' trees.
func TestRouterMatchesTopologyBFS(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for ti, top := range routerTopologies(r) {
		procs := nodeIDs(top)
		router := top.NewRouter(nil)
		for pass := 0; pass < 3; pass++ {
			for i := range procs {
				src := procs[(i*(pass+1))%len(procs)]
				if pass == 2 {
					src = procs[len(procs)-1-i]
				}
				for _, dst := range procs {
					want, werr := referenceBFSRoute(top, src, dst)
					got, gerr := router.BFSRoute(src, dst)
					if !reflect.DeepEqual(gerr, werr) {
						t.Fatalf("topology %d %v->%v pass %d: err %v, reference %v", ti, src, dst, pass, gerr, werr)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("topology %d %v->%v pass %d: route %v, reference %v", ti, src, dst, pass, got, want)
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
		nodes := nodeIDs(top)
		for _, src := range nodes {
			for _, dst := range nodes {
				want, wl, werr := referenceDijkstraRoute(top, src, dst, Label{}, relax)
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
	procs := top.procs
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

// TestBFSTreeArena pins the BFS trees' contract, one row per case: a
// source's first route grows its tree, one hop per node, and later
// routes from it, an unroutable pair's error included, unwind from that
// tree without growing another; and a tree that would pass the arena's
// cap empties the arena first, so the arena never holds more than the
// cap while the routes stay the reference's.
func TestBFSTreeArena(t *testing.T) {
	line := Line(8, Uniform(1), Uniform(1))
	lp := line.procs
	split := splitTopology() // nothing reaches node 2
	check := func(t *testing.T, router *Router, src, dst NodeID) {
		t.Helper()
		want, werr := referenceBFSRoute(router.top, src, dst)
		got, gerr := router.BFSRoute(src, dst)
		if !reflect.DeepEqual(gerr, werr) || !slices.Equal(got, want) {
			t.Fatalf("%v->%v: route %v (err %v), reference %v (err %v)", src, dst, got, gerr, want, werr)
		}
	}
	for _, tc := range []struct {
		name     string
		top      *Topology
		src, dst NodeID
	}{
		{name: "a second route from a source unwinds from its tree", top: line, src: lp[0], dst: lp[5]},
		{name: "an unroutable pair's error comes from the tree", top: split, src: 0, dst: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			router := tc.top.NewRouter(nil)
			n := tc.top.NumNodes()
			for range 2 {
				check(t, router, tc.src, tc.dst)
				if router.tree[tc.src] != 0 || len(router.hops) != n {
					t.Fatalf("tree at %d, arena %d hops; want one tree of %d at 0", router.tree[tc.src], len(router.hops), n)
				}
			}
		})
	}
	t.Run("a tree past the cap empties the arena", func(t *testing.T) {
		mesh := Mesh2D(28, 28, Uniform(1), Uniform(1)) // 784 trees of 784 hops pass the cap
		ps := mesh.procs
		router := mesh.NewRouter(nil)
		emptied := 0
		for pass := 0; pass < 2; pass++ {
			for i, src := range ps {
				held := len(router.hops)
				for k := 1; k <= 3; k++ {
					check(t, router, src, ps[(i*k*37+k)%len(ps)])
				}
				if len(router.hops) < held {
					emptied++
				}
				if cap(router.hops) > treeArenaCap {
					t.Fatalf("arena capacity %d hops, cap %d", cap(router.hops), treeArenaCap)
				}
			}
		}
		if emptied == 0 {
			t.Fatal("the arena never emptied")
		}
	})
}

// TestTopologyRoutesAfterGrowth pins the builder's reuse: a builder
// that goes on adding builds a larger topology, whose Router routes to
// the new nodes, while one built from it earlier keeps its nodes, links,
// mean link speed and routes.
func TestTopologyRoutesAfterGrowth(t *testing.T) {
	relax := func(l Link, cur Label) Label {
		return Label{Start: cur.Finish, Finish: cur.Finish + 1/l.Speed}
	}
	bld := new(Builder)
	a := bld.AddProcessor("a", 1)
	b := bld.AddProcessor("b", 1)
	bld.AddDuplex(a, b, 2)
	small := mustBuild(t, bld)
	c := bld.AddProcessor("c", 1)
	bld.AddDuplex(b, c, 4)
	large := mustBuild(t, bld)
	if small.NumNodes() != 2 || small.NumLinks() != 2 || small.MeanLinkSpeed() != 2 {
		t.Fatalf("earlier topology changed: %v, MLS %v", small, small.MeanLinkSpeed())
	}
	if large.NumNodes() != 3 || large.NumLinks() != 4 || large.MeanLinkSpeed() != 3 {
		t.Fatalf("later topology %v, MLS %v", large, large.MeanLinkSpeed())
	}
	if _, _, err := small.NewRouter(nil).DijkstraRoute(b, a, Label{}, relax); err != nil {
		t.Fatal(err)
	}
	router := large.NewRouter(nil)
	route, err := router.BFSRoute(a, c)
	if err != nil || len(route) != 2 {
		t.Fatalf("BFS a->c after growth: route %v, err %v; want 2 links", route, err)
	}
	route, _, err = router.DijkstraRoute(a, c, Label{}, relax)
	if err != nil || len(route) != 2 {
		t.Fatalf("Dijkstra a->c after growth: route %v, err %v; want 2 links", route, err)
	}
}

// TestDijkstraRoutesAreNeverCached pins the §4.3 contract: the modified
// Dijkstra relaxes over the current link state, so the same (src, dst)
// pair must be routed afresh on every call, even by a Router that holds
// the source's BFS tree. Two relaxations that favour opposite branches
// of a diamond must get opposite routes, from DijkstraRoute and from
// Route alike (the pair has a choice, so it is not forced), after a
// BFSRoute of the same pair that takes the first branch.
func TestDijkstraRoutesAreNeverCached(t *testing.T) {
	bld := new(Builder)
	a := bld.AddProcessor("a", 1)
	b := bld.AddProcessor("b", 1)
	up, down := bld.AddSwitch("up"), bld.AddSwitch("down")
	bld.AddDuplex(a, up, 1)
	bld.AddDuplex(up, b, 1)
	bld.AddDuplex(a, down, 1)
	bld.AddDuplex(down, b, 1)
	top := mustBuild(t, bld)
	via := func(sw NodeID) RelaxFunc {
		return func(l Link, cur Label) Label {
			cost := 10.0
			if l.From == sw || l.To == sw {
				cost = 1
			}
			return Label{Start: cur.Finish, Finish: cur.Finish + cost}
		}
	}
	router := top.NewRouter(nil)
	for pass := 0; pass < 2; pass++ {
		if route, err := router.BFSRoute(a, b); err != nil || top.Link(route[0]).To != up {
			t.Fatalf("pass %d: BFS route %v (err %v) does not go through up, the first branch", pass, route, err)
		}
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
			route, err = router.Route(a, b, Label{}, via(sw))
			if err != nil || len(route) != 2 || top.Link(route[0]).To != sw {
				t.Fatalf("pass %d: Route gave %v (err %v), not the route through %s its relaxation favours",
					pass, route, err, top.Node(sw).Name)
			}
		}
	}
}

// fuzzNet decodes a fuzz input into a topology and the per-link
// parameters of a relaxation. The shapes cover one-way links, parallel
// duplex links, buses, nodes wired to several switches and nodes no
// link reaches. Node 0 is the one processor and every other node a
// switch, so Build admits every shape, and the Router, which routes
// between any nodes, meets unroutable pairs; link costs of 0, 1 or 2 and busy-until times of 0..3
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
	f := &fuzzNet{data: data}
	b := new(Builder)
	n := 2 + f.next()%10
	b.AddProcessor("", 1)
	for i := 0; i < n; i++ {
		f.next() // once the node's kind, still read so the seeds keep their shapes
		if i > 0 {
			b.AddSwitch("")
		}
	}
	for m := f.next() % 24; m > 0; m-- {
		kind := f.next() % 8
		u, v, w := NodeID(f.next()%n), NodeID(f.next()%n), NodeID(f.next()%n)
		if u == v {
			continue
		}
		switch {
		case kind < 3:
			b.AddLink(u, v, 1)
		case kind < 6:
			b.AddDuplex(u, v, 1)
		case kind == 6: // parallel cables between the same pair
			b.AddDuplex(u, v, 1)
			b.AddDuplex(u, v, 1)
		case w != u && w != v:
			b.AddBus([]NodeID{u, v, w}, 1)
		}
	}
	top, err := b.Build()
	if err != nil {
		panic(err)
	}
	f.top = top
	for range top.NumLinks() {
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

// FuzzDijkstraRoute requires the block-restricted Router.DijkstraRoute
// to find exactly what the unrestricted reference finds — the same
// route, the same label bit for bit, the same error — with no more
// relax calls, over a sequence of searches on one Router; Router.Route
// must return the same route and error with no more relax calls than
// DijkstraRoute. Every input also checks, for every ordered pair of
// nodes, that the Router calls a pair forced exactly when it has one
// simple route, and that Router.BFSRoute finds the BFS reference's
// route or error.
func FuzzDijkstraRoute(f *testing.F) {
	// A star: hub 0, leaves 1-3; every leaf hangs off the hub, so
	// every pair is forced.
	f.Add([]byte{
		2, 0, 1, 1, 1, // 4 nodes
		3, 3, 0, 1, 0, 3, 0, 2, 0, 3, 0, 3, 0, // 3 duplex cables
		1, 0, 1, 1, 1, 0, 0, 0, 1, 2, 1, 0, // cost, until per link
		2, 1, 2, 0, 0, 0, 2, 3, 1, 1, 1, 3, 1, 0, 2, 0, // 3 searches: src, dst, mode, finish, start offset
	})
	// Hubs 0 and 1, leaves 2-4 (3 on both hubs), a one-way link, a
	// bus, and a query from a hub.
	f.Add([]byte{
		3, 0, 0, 1, 1, 1, // 5 nodes
		7, 3, 0, 1, 0, 3, 0, 2, 0, 3, 0, 3, 0, 3, 1, 3, 0, 3, 1, 4, 0, 0, 2, 4, 0, 7, 2, 3, 4,
		0, 0, 1, 0, 0, 1, 1, 0, 2, 0, 0, 0, 1, 1, 0, 2, 1, 0, 0, 3, 0, 0, 2, 2,
		5, 2, 4, 0, 1, 0, 4, 2, 1, 1, 1, 3, 2, 0, 2, 0, 3, 2, 1, 0, 0, 0, 4, 0, 0, 1, 4, 3, 1, 2, 1,
	})
	f.Add([]byte{3, 1, 1, 1, 1, 0, 0, 1, 2, 3, 0, 0, 0, 2, 0, 1, 0, 2, 1}) // unreachable pairs
	// A cycle of nodes 0, 3 and 4 dangling off node 0, the cut vertex
	// between nodes 1 and 2.
	f.Add([]byte{
		3, 0, 1, 1, 0, 0, // 5 nodes
		5, 3, 1, 0, 0, 3, 0, 2, 0, 3, 0, 3, 0, 3, 3, 4, 0, 3, 4, 0, 0, // 5 duplex cables
		1, 0, 1, 1, 0, 2, 2, 0, 1, 0, 1, 3, 2, 1, 0, 0, 1, 2, 1, 0,
		3, 1, 2, 0, 1, 0, 1, 3, 1, 0, 0, 3, 2, 0, 2, 1, 4, 1, 1, 1, 0,
	})
	// Parallel duplex trunks between nodes 0 and 1, nodes 2 and 3 on
	// either side: the trunk is a block of two nodes with two links
	// each way, so no pair across it is forced.
	f.Add([]byte{
		2, 0, 0, 1, 1, // 4 nodes
		3, 3, 2, 0, 0, 6, 0, 1, 0, 3, 3, 1, 0,
		1, 0, 1, 0, 2, 0, 2, 0, 1, 1, 1, 0, 1, 0, 1, 0,
		2, 2, 3, 0, 0, 0, 3, 2, 1, 1, 1, 2, 3, 1, 0, 0,
	})
	// A one-way link from node 0 to node 2 breaks the otherwise unique
	// path back to node 1: 2->1 is forced and unroutable.
	f.Add([]byte{
		1, 0, 1, 1, // 3 nodes
		2, 3, 1, 0, 0, 0, 0, 2, 0,
		1, 0, 1, 0, 1, 0,
		1, 2, 1, 0, 0, 0, 1, 2, 0, 1, 0,
	})
	// A bus of nodes 0, 1 and 2 beside a duplex cable between 0 and 1,
	// and node 3 on node 2.
	f.Add([]byte{
		2, 1, 1, 0, 1, // 4 nodes
		3, 7, 0, 1, 2, 3, 0, 1, 0, 3, 2, 3, 0,
		2, 0, 1, 1, 0, 0, 1, 0, 1, 2,
		3, 0, 1, 0, 0, 0, 3, 0, 1, 1, 0, 1, 3, 0, 2, 1, 0, 3, 1, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		net := newFuzzNet(data)
		top, n := net.top, net.top.NumNodes()
		router := top.NewRouter(nil)
		checkForcedPairs(t, router)
		for src := range NodeID(n) {
			for dst := range NodeID(n) {
				route, err := router.BFSRoute(src, dst)
				wroute, werr := referenceBFSRoute(top, src, dst)
				if !reflect.DeepEqual(err, werr) || !slices.Equal(route, wroute) {
					t.Fatalf("%v->%v: BFSRoute gave %v (error %v), reference %v (error %v)", src, dst, route, err, wroute, werr)
				}
			}
		}
		for q := 1 + net.next()%16; q > 0; q-- {
			src, dst := NodeID(net.next()%n), NodeID(net.next()%n)
			mode, f0 := net.next()%2, float64(net.next()%3)
			init := Label{Start: f0 - float64(net.next()%2), Finish: f0}
			var got, want, routed int
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
			// DijkstraRoute's route is the Router's buffer, which Route
			// may reuse: compare with the reference's equal copy.
			rroute, rerr := router.Route(src, dst, init, net.relax(mode, &routed))
			if !reflect.DeepEqual(rerr, werr) || !slices.Equal(rroute, wroute) {
				t.Fatalf("%v->%v: Route gave %v (error %v), DijkstraRoute %v (error %v)", src, dst, rroute, rerr, wroute, werr)
			}
			if routed > got {
				t.Fatalf("%v->%v: Route made %d relax calls, DijkstraRoute %d", src, dst, routed, got)
			}
		}
	})
}

// checkForcedPairs requires, for every ordered pair of r's nodes, that
// r finds the pair forced exactly when simpleRoutes counts one route.
func checkForcedPairs(t *testing.T, r *Router) {
	t.Helper()
	n := NodeID(r.top.NumNodes())
	for src := range n {
		for dst := range n {
			want := simpleRoutes(r.top, src, dst) == 1
			if got := r.begin(src, dst); got != want {
				t.Fatalf("%v->%v: forced %v, but %d simple routes", src, dst, got, simpleRoutes(r.top, src, dst))
			}
		}
	}
}

// simpleRoutes counts, by brute force and up to 2, the simple paths
// from src to dst in the undirected view of top, where nodes u and v
// are joined by as many parallel edges as the larger of their link
// counts u->v and v->u (a bus joins each pair of its members once each
// way). The empty path makes src == dst count 1.
func simpleRoutes(top *Topology, src, dst NodeID) int {
	n := top.NumNodes()
	links := make([][]int, n) // links[u][v]: links usable from u to v
	for u := range links {
		links[u] = make([]int, n)
	}
	for u := range n {
		for _, h := range top.out(NodeID(u)) {
			links[u][h.To]++
		}
	}
	edges := func(u, v int) int { return max(links[u][v], links[v][u]) }
	onPath := make([]bool, n)
	// reaches reports whether dst is reachable from v off the path, so
	// every branch count takes ends in a path and two paths end it.
	reaches := func(v int) bool {
		seen := slices.Clone(onPath)
		seen[v] = true
		for queue := []int{v}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			if u == int(dst) {
				return true
			}
			for w := range n {
				if !seen[w] && edges(u, w) > 0 {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		return false
	}
	var count func(u int) int
	count = func(u int) int {
		if u == int(dst) {
			return 1
		}
		onPath[u] = true
		defer func() { onPath[u] = false }()
		total := 0
		for v := range n {
			if k := edges(u, v); k > 0 && !onPath[v] && reaches(v) {
				if total += k * count(v); total >= 2 {
					return 2
				}
			}
		}
		return total
	}
	return count(int(src))
}

// TestForcedPairsHaveOneSimpleRoute checks the Router's forced pairs
// against the brute-force count over the equivalence topologies and
// the block-cut tree's corner cases: a cycle dangling off a cut vertex
// between two processors, parallel duplex trunks, a one-way link that
// breaks an otherwise unique path, and a three-member bus beside a
// parallel cable.
func TestForcedPairsHaveOneSimpleRoute(t *testing.T) {
	dangling := new(Builder)
	hub := dangling.AddSwitch("hub")
	dangling.AddDuplex(dangling.AddProcessor("", 1), hub, 1)
	dangling.AddDuplex(dangling.AddProcessor("", 1), hub, 1)
	x, y := dangling.AddSwitch("x"), dangling.AddSwitch("y")
	dangling.AddDuplex(hub, x, 1)
	dangling.AddDuplex(x, y, 1)
	dangling.AddDuplex(y, hub, 1)

	trunks := new(Builder)
	s0, s1 := trunks.AddSwitch(""), trunks.AddSwitch("")
	trunks.AddDuplex(trunks.AddProcessor("", 1), s0, 1)
	trunks.AddDuplex(s0, s1, 1)
	trunks.AddDuplex(s0, s1, 1)
	trunks.AddDuplex(trunks.AddProcessor("", 1), s1, 1)

	oneWay := new(Builder) // the one-way link's end is a switch, which no processor needs to reach back from
	hub = oneWay.AddSwitch("")
	oneWay.AddDuplex(oneWay.AddProcessor("", 1), hub, 1)
	oneWay.AddLink(hub, oneWay.AddSwitch(""), 1)

	bus := new(Builder)
	a, b, sw := bus.AddProcessor("", 1), bus.AddProcessor("", 1), bus.AddSwitch("")
	bus.AddBus([]NodeID{a, b, sw}, 1)
	bus.AddDuplex(a, b, 1)
	bus.AddDuplex(sw, bus.AddProcessor("", 1), 1)

	shapes := routerTopologies(rand.New(rand.NewSource(5)))
	for _, b := range []*Builder{dangling, trunks, oneWay, bus} {
		shapes = append(shapes, mustBuild(t, b))
	}
	for i, top := range shapes {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkForcedPairs(t, top.NewRouter(nil)) })
	}
}

// TestDijkstraRouteIsAllocationFree pins the allocation contract of
// Router.DijkstraRoute and Router.Route: once the queue has grown and
// the forced pairs' sources have their BFS trees, a search allocates
// nothing, its route included.
func TestDijkstraRouteIsAllocationFree(t *testing.T) {
	top := RandomCluster(rand.New(rand.NewSource(3)), RandomClusterParams{Processors: 32})
	router := top.NewRouter(nil)
	relax := func(l Link, cur Label) Label {
		return Label{Start: cur.Finish, Finish: cur.Finish + 10/l.Speed}
	}
	ps := top.procs
	search := func() {
		for i, src := range ps {
			dst := ps[(i*7+3)%len(ps)]
			if _, _, err := router.DijkstraRoute(src, dst, Label{}, relax); err != nil {
				t.Fatal(err)
			}
			if _, err := router.Route(src, dst, Label{}, relax); err != nil {
				t.Fatal(err)
			}
		}
	}
	search() // grow the queue
	if allocs := testing.AllocsPerRun(10, search); allocs != 0 {
		t.Fatalf("%v allocations per %d warm searches, want 0", allocs, len(ps))
	}
}

// TestBFSRouteIsAllocationFree pins the allocation contract of
// Router.BFSRoute: once every source has its tree, a BFS route, a
// self-route and Route's answer for a forced pair allocate nothing.
func TestBFSRouteIsAllocationFree(t *testing.T) {
	top := Star(16, Uniform(1), Uniform(1)) // every pair is forced
	router := top.NewRouter(nil)
	relax := func(l Link, cur Label) Label {
		return Label{Start: cur.Finish, Finish: cur.Finish + 1}
	}
	ps := top.procs
	route := func() {
		for i, src := range ps {
			dst := ps[(i*5+3)%len(ps)]
			if _, err := router.BFSRoute(src, dst); err != nil {
				t.Fatal(err)
			}
			if _, err := router.BFSRoute(src, src); err != nil {
				t.Fatal(err)
			}
			if _, err := router.Route(dst, src, Label{}, relax); err != nil {
				t.Fatal(err)
			}
		}
	}
	route() // grow every source's tree
	if allocs := testing.AllocsPerRun(10, route); allocs != 0 {
		t.Fatalf("%v allocations per %d warm BFS routes, want 0", allocs, len(ps))
	}
}
