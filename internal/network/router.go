package network

// Router runs route searches over one topology with reusable scratch
// buffers, eliminating the per-call allocations (visit marks,
// predecessor arrays, label heaps) that dominate the schedulers' hot
// probe loops. A Router is NOT safe for concurrent use: create one per
// goroutine (every scheduler state owns one) and share a RouteCache
// between them instead.
//
// The search algorithms are byte-for-byte the same as the Topology
// convenience methods — same traversal order, same deterministic
// tie-breaking — so routes are identical whichever entry point is
// used. An attached RouteCache serves BFSRoute only; DijkstraRoute
// always searches, because its labels depend on link state (see
// RouteCache).
type Router struct {
	top   *Topology
	cache *RouteCache // optional; memoizes BFS (static) routes only

	// epoch-stamped visit marks: mark[n] == epoch means "touched in
	// the current search", so buffers never need clearing.
	epoch  uint64
	seen   []uint64 // BFS visited
	open   []uint64 // Dijkstra open set
	closed []uint64 // Dijkstra closed set

	prev  []hop
	queue []NodeID
	best  []Label
	pq    labelQueue
}

// NewRouter returns a Router over the topology. cache may be nil; a
// non-nil cache is consulted and filled by BFSRoute and may be shared
// between Routers (it is concurrency-safe).
func (t *Topology) NewRouter(cache *RouteCache) *Router {
	n := len(t.nodes)
	return &Router{
		top:    t,
		cache:  cache,
		seen:   make([]uint64, n),
		open:   make([]uint64, n),
		closed: make([]uint64, n),
		prev:   make([]hop, n),
		best:   make([]Label, n),
	}
}

// BFSRoute returns a minimal route (fewest links) from src to dst,
// consulting the route cache first when one is attached. Semantics are
// identical to Topology.BFSRoute.
//
// edgelint:noalloc — the steady-state path is a cache hit; the miss
// path (bfs + store) is cold, amortized by the route cache.
func (r *Router) BFSRoute(src, dst NodeID) (Route, error) {
	t := r.top
	t.checkNode(src)
	t.checkNode(dst)
	if src == dst {
		return Route{}, nil
	}
	if r.cache != nil {
		if route, err, ok := r.cache.lookup(src, dst); ok {
			return route, err
		}
	}
	route, err := r.bfs(src, dst)
	if r.cache != nil {
		r.cache.store(src, dst, route, err)
	}
	return route, err
}

// bfs is the uncached breadth-first search over the Router's reused
// scratch arrays.
//
// edgelint:coldpath — runs once per (src, dst) pair; the LRU route
// cache serves every later request (static topologies never evict a
// live working set in practice).
func (r *Router) bfs(src, dst NodeID) (Route, error) {
	t := r.top
	r.epoch++
	e := r.epoch
	r.seen[src] = e
	queue := append(r.queue[:0], src)
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		for _, h := range t.adj[n] {
			if r.seen[h.To] == e {
				continue
			}
			r.seen[h.To] = e
			r.prev[h.To] = hop{Link: h.Link, To: n}
			if h.To == dst {
				r.queue = queue
				return t.unwind(r.prev, src, dst), nil
			}
			queue = append(queue, h.To)
		}
	}
	r.queue = queue
	return nil, &ErrNoRoute{From: src, To: dst}
}

// DijkstraRoute finds the route from src to dst minimizing the final
// label under the given relaxation. Semantics are identical to
// Topology.DijkstraRoute; only the scratch state is reused.
func (r *Router) DijkstraRoute(src, dst NodeID, init Label, relax RelaxFunc) (Route, Label, error) {
	t := r.top
	t.checkNode(src)
	t.checkNode(dst)
	if src == dst {
		return Route{}, init, nil
	}
	r.epoch++
	e := r.epoch
	r.pq = r.pq[:0]
	pq := &r.pq
	r.best[src] = init
	r.open[src] = e
	pq.push(labelItem{node: src, label: init})
	for len(*pq) > 0 {
		it := pq.pop()
		if r.closed[it.node] == e {
			continue
		}
		if r.best[it.node].Less(it.label) {
			continue // stale entry
		}
		r.closed[it.node] = e
		if it.node == dst {
			return t.unwind(r.prev, src, dst), r.best[dst], nil
		}
		for _, h := range t.adj[it.node] {
			if r.closed[h.To] == e {
				continue
			}
			nl := relax(t.links[h.Link], r.best[it.node])
			nl.Hops = r.best[it.node].Hops + 1
			if r.open[h.To] != e || nl.Less(r.best[h.To]) {
				r.best[h.To] = nl
				r.prev[h.To] = hop{Link: h.Link, To: it.node}
				r.open[h.To] = e
				pq.push(labelItem{node: h.To, label: nl})
			}
		}
	}
	return nil, Label{}, &ErrNoRoute{From: src, To: dst}
}
