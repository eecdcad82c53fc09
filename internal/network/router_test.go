package network

import (
	"math/rand"
	"reflect"
	"testing"
)

// routerTopologies builds a varied set of shapes for equivalence tests.
func routerTopologies(r *rand.Rand) []*Topology {
	return []*Topology{
		Line(6, Uniform(1), Uniform(1)),
		Star(8, Uniform(1), Uniform(1)),
		Ring(7, Uniform(1), Uniform(1)),
		Mesh2D(3, 4, Uniform(1), Uniform(1)),
		FatTree(3, 3, Uniform(1), Uniform(1)),
		Bus(5, Uniform(1), 1),
		RandomCluster(r, RandomClusterParams{Processors: 12}),
	}
}

func TestRouterMatchesTopologyBFS(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for ti, top := range routerTopologies(r) {
		router := top.NewRouter(NewRouteCache(0, 1))
		procs := top.Processors()
		for _, src := range procs {
			for _, dst := range procs {
				want, werr := top.BFSRoute(src, dst)
				// Twice: the second call must come from the cache and
				// still be identical.
				for pass := 0; pass < 2; pass++ {
					got, gerr := router.BFSRoute(src, dst)
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

func TestRouteCacheHitsAndEviction(t *testing.T) {
	top := Line(8, Uniform(1), Uniform(1))
	cache := NewRouteCache(3, 1)
	router := top.NewRouter(cache)
	procs := top.Processors()

	mustRoute := func(src, dst NodeID) Route {
		t.Helper()
		route, err := router.BFSRoute(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return route
	}

	// Three distinct pairs fill the cache.
	mustRoute(procs[0], procs[1])
	mustRoute(procs[0], procs[2])
	mustRoute(procs[0], procs[3])
	if n := cache.Len(); n != 3 {
		t.Fatalf("cache holds %d entries, want 3", n)
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 0/3", hits, misses)
	}
	// Re-querying hits.
	first := mustRoute(procs[0], procs[1])
	if hits, _ := cache.Stats(); hits != 1 {
		t.Fatalf("hits=%d, want 1", hits)
	}
	// A fourth pair evicts the least recently used — (0,2), because
	// (0,1) was just refreshed.
	mustRoute(procs[0], procs[4])
	if n := cache.Len(); n != 3 {
		t.Fatalf("cache holds %d entries after eviction, want 3", n)
	}
	hits0, misses0 := cache.Stats()
	mustRoute(procs[0], procs[1]) // still cached
	mustRoute(procs[0], procs[2]) // evicted → miss
	hits1, misses1 := cache.Stats()
	if hits1-hits0 != 1 || misses1-misses0 != 1 {
		t.Fatalf("after eviction: Δhits=%d Δmisses=%d, want 1/1", hits1-hits0, misses1-misses0)
	}
	// Cached route identical to a fresh computation.
	fresh, err := top.BFSRoute(procs[0], procs[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, fresh) {
		t.Fatalf("cached route %v differs from fresh %v", first, fresh)
	}
}

func TestRouteCacheCachesRoutingErrors(t *testing.T) {
	top := NewTopology()
	a := top.AddProcessor("a", 1)
	b := top.AddProcessor("b", 1)
	cache := NewRouteCache(0, 1)
	router := top.NewRouter(cache)
	for pass := 0; pass < 2; pass++ {
		if _, err := router.BFSRoute(a, b); err == nil {
			t.Fatalf("pass %d: expected no-route error", pass)
		}
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1 (error cached)", hits, misses)
	}
}

func TestRouteCacheConcurrentSharing(t *testing.T) {
	// Several routers sharing one cache, hammering the same pairs. Run
	// under -race this checks the locking.
	top := Mesh2D(3, 3, Uniform(1), Uniform(1))
	cache := NewRouteCache(16, 1)
	procs := top.Processors()
	done := make(chan Route)
	for w := 0; w < 4; w++ {
		go func() {
			router := top.NewRouter(cache)
			var last Route
			for i := 0; i < 50; i++ {
				for _, src := range procs {
					for _, dst := range procs {
						route, err := router.BFSRoute(src, dst)
						if err != nil {
							panic(err)
						}
						last = route
					}
				}
			}
			done <- last
		}()
	}
	want := <-done
	for w := 1; w < 4; w++ {
		if got := <-done; !reflect.DeepEqual(got, want) {
			t.Fatalf("worker routes diverged: %v vs %v", got, want)
		}
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
	router := top.NewRouter(NewRouteCache(0, 1))
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
