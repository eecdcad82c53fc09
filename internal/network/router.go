package network

// Router runs route searches over one topology with reusable scratch
// buffers, eliminating the per-call allocations (visit marks,
// predecessor arrays, label heaps) that dominate the schedulers' hot
// probe loops. A Router and its RouteCache are NOT safe for concurrent
// use: every scheduler state owns one of each.
//
// The Topology convenience methods build a fresh Router per call, so
// routes, labels and errors are the same whichever entry point is
// used. An attached RouteCache serves BFSRoute only; DijkstraRoute
// always searches, because its labels depend on link state (see
// RouteCache).
type Router struct {
	top   *Topology
	links int         // len(top.links) when the Router was built
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
	path  Route // DijkstraRoute's result, valid until the next search
}

// NewRouter returns a Router over the topology, sized to its current
// node count. cache may be nil; a non-nil cache is consulted and filled
// by BFSRoute and belongs to this Router alone.
func (t *Topology) NewRouter(cache *RouteCache) *Router {
	n := len(t.nodes)
	return &Router{
		top:    t,
		links:  len(t.links),
		cache:  cache,
		seen:   make([]uint64, n),
		open:   make([]uint64, n),
		closed: make([]uint64, n),
		prev:   make([]hop, n),
		best:   make([]Label, n),
		path:   make(Route, 0, n), // a route visits each node at most once
	}
}

// Topology returns the topology the Router searches.
func (r *Router) Topology() *Topology { return r.top }

// Fits reports whether r searches t as t is now. Topologies only grow
// (AddProcessor, AddSwitch, AddLink, AddBus), so a Router built for t
// before it gained a node or a link has scratch sized too small and may
// cache routes the new links would shorten: it does not fit.
func (r *Router) Fits(t *Topology) bool {
	return r.top == t && len(r.seen) == len(t.nodes) && r.links == len(t.links)
}

// CachedRoutes reports how many pairs the attached route cache holds
// (0 without one).
func (r *Router) CachedRoutes() int {
	if r.cache == nil {
		return 0
	}
	return len(r.cache.routes)
}

// Warm fills the route cache with the BFS route of every ordered pair
// of nodes. Routes are pure functions of the topology, so warming
// changes nothing but the latency of the first searches. It does
// nothing without a cache, or when the pairs would not all fit (the
// cache would only empty itself again).
//
// One traversal per source serves every destination: a search for one
// pair stops when it first reaches dst, and each predecessor it has set
// by then, those on dst's route among them, is the one a traversal of
// the whole topology sets, so the unwound routes are exactly
// BFSRoute's.
func (r *Router) Warm(nodes []NodeID) {
	if r.cache == nil || len(nodes)*(len(nodes)-1) > routeCacheCap {
		return
	}
	for _, src := range nodes {
		// edgelint:ignore errflow — no node is -1, so the traversal
		// covers everything reachable and its error names no pair.
		_, _ = r.bfs(src, -1)
		for _, dst := range nodes {
			switch {
			case dst == src:
			case r.seen[dst] == r.epoch:
				r.cache.store(src, dst, unwind(r.prev, src, dst), nil)
			default:
				r.cache.store(src, dst, nil, &ErrNoRoute{From: src, To: dst})
			}
		}
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
// edgelint:coldpath — runs once per (src, dst) pair; the route cache
// serves every later request.
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
				return unwind(r.prev, src, dst), nil
			}
			queue = append(queue, h.To)
		}
	}
	r.queue = queue
	return nil, &ErrNoRoute{From: src, To: dst}
}

// DijkstraRoute finds the route from src to dst minimizing the final
// label under the given relaxation. Semantics are identical to
// Topology.DijkstraRoute; only the scratch state is reused. The
// returned route is the Router's own buffer: it is valid until the
// Router's next search, so a caller that keeps it copies it.
//
// The search never relaxes into a node other than dst whose every
// outgoing hop leads to a closed node (a leaf processor reached from
// its switch is the common case). Popped, such a node could relax
// nothing, and the queue pops in a strict total order on (label, node
// ID), so dropping its entries leaves every other pop, dst's
// predecessor chain and its label exactly as a search without the
// prune finds them — only the relax calls into dead ends are saved.
//
// edgelint:noalloc
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
			return r.unwindPath(src, dst), r.best[dst], nil
		}
		for _, h := range t.adj[it.node] {
			if r.closed[h.To] == e || (h.To != dst && r.deadEnd(h.To, e)) {
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
	// edgelint:coldpath — an unroutable pair fails the schedule.
	return nil, Label{}, &ErrNoRoute{From: src, To: dst}
}

// deadEnd reports whether every outgoing hop of n leads to a node the
// search of epoch e has closed. The closed set only grows, so a dead
// end stays one for the rest of the search.
func (r *Router) deadEnd(n NodeID, e uint64) bool {
	for _, h := range r.top.adj[n] {
		if r.closed[h.To] != e {
			return false
		}
	}
	return true
}

// unwindPath writes the route to dst into the Router's path buffer. A
// predecessor chain visits each node at most once, so the buffer's
// capacity (the node count) always suffices. The result's capacity
// ends at its length, so an append by the caller copies instead of
// writing into the buffer.
func (r *Router) unwindPath(src, dst NodeID) Route {
	k := routeLen(r.prev, src, dst)
	return fillRoute(r.path[:k:k], r.prev, dst)
}
