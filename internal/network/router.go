package network

// treeArenaCap bounds a Router's BFS trees, in hops (8 bytes each, so
// 4 MiB): 48 sources of a 10,001-node star fit. A tree that would pass
// the cap empties the arena first, and the trees refill on demand,
// which changes no route. A topology with more nodes than the cap keeps
// one tree at a time.
const treeArenaCap = 1 << 19

// RouteCache is an empty placeholder kept for NewRouter's signature: a
// Router memoizes its BFS routes itself.
//
// Deprecated: pass nil to NewRouter.
type RouteCache struct{}

// Router runs route searches over one topology with reusable scratch
// buffers, eliminating the per-call allocations (visit marks,
// predecessor arrays, label heaps) that dominate the schedulers' hot
// probe loops. A Router is NOT safe for concurrent use: every scheduler
// state owns one.
//
// BFS routes are a pure function of the topology, so the Router keeps
// one BFS predecessor tree per source it has been asked about and
// unwinds every later route from src out of src's tree. Modified
// Dijkstra routes (§4.3) are never kept: their labels are finish times
// over the current link state (the slots already booked on each link),
// so the same (src, dst) pair can take a different route on every call.
// A forced pair (Route), joined only through bridges, has one route
// whatever the link state: its BFS route, which Route unwinds from the
// tree.
//
// Every route a Router returns is its own buffer, valid until its next
// search: a caller that keeps a route copies it.
type Router struct {
	top *Topology

	// epoch-stamped visit marks: open[n] == epoch means "touched in
	// the current search", so buffers never need clearing.
	epoch  uint64
	open   []uint64 // Dijkstra open set
	closed []uint64 // Dijkstra closed set
	// mark[b] == epoch: block b of the topology's block-cut tree lies
	// between the current search's ends, so the search relaxes its
	// links (blocks.go).
	mark []uint64

	prev  []hop // Dijkstra predecessors
	queue []int32
	best  []Label
	pq    labelQueue
	path  Route // the last search's route, valid until the next search

	// tree[src] is the offset in hops of src's BFS predecessor tree, or
	// -1 before the first BFSRoute from src (and after the arena last
	// emptied). A tree holds one hop per node: the link and node its
	// route arrives through, or Link -1 where src reaches nothing.
	tree []int
	hops []hop
}

// NewRouter returns a Router over the topology with its own search
// scratch and no BFS tree yet; it shares the topology's adjacency and
// block-cut tree. The argument is ignored.
func (t *Topology) NewRouter(_ *RouteCache) *Router {
	n := len(t.nodes)
	tree := make([]int, n)
	for i := range tree {
		tree[i] = -1
	}
	return &Router{
		top:    t,
		open:   make([]uint64, n),
		closed: make([]uint64, n),
		mark:   make([]uint64, len(t.bt.blocks)),
		prev:   make([]hop, n),
		best:   make([]Label, n),
		path:   make(Route, 0, n), // a route visits each node at most once
		tree:   tree,
	}
}

// Topology returns the topology the Router searches.
func (r *Router) Topology() *Topology { return r.top }

// BFSRoute returns a minimal route (fewest links) from src to dst using
// breadth-first search with deterministic tie-breaking by link
// insertion order, as used by the Basic Algorithm. src == dst yields an
// empty route. The first call from src grows src's tree; the route is
// the Router's buffer, valid until its next search.
func (r *Router) BFSRoute(src, dst NodeID) (Route, error) {
	t := r.top
	t.checkNode(src)
	t.checkNode(dst)
	if src == dst {
		return Route{}, nil
	}
	off := r.tree[src]
	if off < 0 {
		off = r.grow(src)
	}
	prev := r.hops[off : off+len(r.tree)]
	if prev[dst].Link < 0 {
		return nil, &ErrNoRoute{From: src, To: dst}
	}
	return r.unwindPath(prev, src, dst), nil
}

// grow runs one breadth-first traversal of everything src reaches and
// stores its predecessor tree in the arena, returning the tree's
// offset. A search for one pair that stops when it first reaches dst
// sets the same predecessor on every node it has reached by then, those
// on dst's route among them, so every route unwound from the tree is
// that search's.
func (r *Router) grow(src NodeID) int {
	n := len(r.tree)
	if len(r.hops)+n > max(treeArenaCap, n) {
		r.hops = r.hops[:0]
		for i := range r.tree {
			r.tree[i] = -1
		}
	}
	off := len(r.hops)
	if off+n > cap(r.hops) {
		grown := make([]hop, off, min(max(2*cap(r.hops), off+n), max(treeArenaCap, n)))
		copy(grown, r.hops)
		r.hops = grown
	}
	r.hops = r.hops[:off+n]
	prev := r.hops[off:]
	for i := range prev {
		prev[i] = hop{Link: -1}
	}
	top := r.top
	queue := append(r.queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, h := range top.hops[top.off[u]:top.off[u+1]] {
			if h.To == int32(src) || prev[h.To].Link >= 0 {
				continue
			}
			prev[h.To] = hop{Link: h.Link, To: u}
			queue = append(queue, h.To)
		}
	}
	r.queue = queue
	r.tree[src] = off
	return off
}

// DijkstraRoute finds the route from src to dst minimizing the final
// label under the given relaxation, implementing the paper's modified
// routing algorithm (§4.3): "the minimal criterion is the finish time
// of the edge on each link by basic insertion". init is the label at
// the source node (its Finish is normally the source task's finish
// time, Start likewise). src == dst yields an empty route. The route is
// the Router's buffer, valid until its next search.
//
// The search relaxes only links of the blocks on the block-cut tree
// path between src and dst. Any other node hangs off a cut vertex c of
// those blocks: it gets no label before c is closed, and its hops then
// lead only inside its component or back to the closed c. So it never
// changes the label or predecessor of a node on the path, and the
// queue pops in a strict total order on (label, node ID): the route,
// the label and the error are exactly those of a search of every link,
// and the relax calls are a subsequence of that search's.
func (r *Router) DijkstraRoute(src, dst NodeID, init Label, relax RelaxFunc) (Route, Label, error) {
	r.begin(src, dst)
	if src == dst {
		return Route{}, init, nil
	}
	return r.search(src, dst, init, relax)
}

// Route returns the route DijkstraRoute finds from src to dst, and its
// error, without the label. When every block between src and dst is a
// bridge, the pair has at most one route, the one BFSRoute finds, so
// Route unwinds that from src's BFS tree and calls no relax.
func (r *Router) Route(src, dst NodeID, init Label, relax RelaxFunc) (Route, error) {
	if r.begin(src, dst) {
		return r.BFSRoute(src, dst)
	}
	route, _, err := r.search(src, dst, init, relax)
	return route, err
}

// begin checks both ends of a search, starts its epoch and marks the
// blocks between them. It reports whether the pair is forced: src ==
// dst, or joined through bridges only.
func (r *Router) begin(src, dst NodeID) bool {
	r.top.checkNode(src)
	r.top.checkNode(dst)
	r.epoch++
	return r.top.bt.markPath(r.mark, src, dst, r.epoch)
}

// search is the modified Dijkstra from src to dst over the blocks
// begin marked.
func (r *Router) search(src, dst NodeID, init Label, relax RelaxFunc) (Route, Label, error) {
	t, e := r.top, r.epoch
	bt := &t.bt
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
			return r.unwindPath(r.prev, src, dst), r.best[dst], nil
		}
		for _, h := range t.out(it.node) {
			if r.closed[h.To] == e || r.mark[bt.link[h.Link]] != e {
				continue
			}
			nl := relax(t.links[h.Link], r.best[it.node])
			nl.Hops = r.best[it.node].Hops + 1
			if r.open[h.To] != e || nl.Less(r.best[h.To]) {
				r.best[h.To] = nl
				r.prev[h.To] = hop{Link: h.Link, To: int32(it.node)}
				r.open[h.To] = e
				pq.push(labelItem{node: NodeID(h.To), label: nl})
			}
		}
	}
	return nil, Label{}, &ErrNoRoute{From: src, To: dst}
}

// unwindPath writes the route to dst along the predecessors prev into
// the Router's path buffer. A predecessor chain visits each node at
// most once, so the buffer's capacity (the node count) always suffices.
// The result's capacity ends at its length, so an append by the caller
// copies instead of writing into the buffer.
func (r *Router) unwindPath(prev []hop, src, dst NodeID) Route {
	k := routeLen(prev, src, dst)
	return fillRoute(r.path[:k:k], prev, dst)
}
