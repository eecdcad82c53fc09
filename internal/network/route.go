package network

import "fmt"

// Route is a path through the network: the ordered list of links an
// edge's communication traverses from a source processor to a target
// processor. An intra-processor route is the empty slice. Routes
// handed out by the route cache are shared between concurrent
// Schedule requests and must never be written after they are built.
type Route []LinkID

// ErrNoRoute is returned when no path exists between two nodes.
type ErrNoRoute struct {
	From, To NodeID
}

func (e *ErrNoRoute) Error() string {
	return fmt.Sprintf("network: no route from node %d to node %d", e.From, e.To)
}

// BFSRoute returns a minimal route (fewest links) from src to dst using
// breadth-first search with deterministic tie-breaking by link
// insertion order, as used by the Basic Algorithm. src == dst yields an
// empty route. The search runs on a pooled Router; hold a Router (see
// NewRouter) to also reuse a route cache across calls.
func (t *Topology) BFSRoute(src, dst NodeID) (Route, error) {
	r := t.router()
	defer t.routers.Put(r)
	return r.BFSRoute(src, dst)
}

func (t *Topology) unwind(prev []hop, src, dst NodeID) Route {
	var rev []LinkID
	for n := dst; n != src; n = prev[n].To {
		rev = append(rev, prev[n].Link)
	}
	route := make(Route, len(rev))
	for i := range rev {
		route[i] = rev[len(rev)-1-i]
	}
	return route
}

// Label is the state the modified Dijkstra search propagates along a
// tentative route: the scheduled start and finish time of the edge's
// communication on the most recent link. Labels are ordered primarily
// by Finish and secondarily by Start; Hops breaks remaining ties so
// that among equally fast routes the shortest is preferred.
type Label struct {
	Start  float64
	Finish float64
	Hops   int
}

// Less reports whether l is strictly better than m. The comparisons
// are exact on purpose: label dominance must be a strict weak order,
// and an epsilon here would make routing sensitive to insertion order.
func (l Label) Less(m Label) bool {
	// edgelint:ignore floateq — exact lexicographic label dominance.
	if l.Finish != m.Finish {
		return l.Finish < m.Finish
	}
	// edgelint:ignore floateq — exact lexicographic label dominance.
	if l.Start != m.Start {
		return l.Start < m.Start
	}
	return l.Hops < m.Hops
}

// RelaxFunc computes the label after traversing link l with the current
// label cur: typically it probes the link's timeline for the earliest
// feasible slot honouring the link causality condition. It must be
// monotone: a worse input label must not produce a better output label.
type RelaxFunc func(l Link, cur Label) Label

// DijkstraRoute finds the route from src to dst minimizing the final
// label under the given relaxation, implementing the paper's modified
// routing algorithm (§4.3): "the minimal criterion is the finish time
// of the edge on each link by basic insertion". init is the label at
// the source node (its Finish is normally the source task's finish
// time, Start likewise). src == dst yields an empty route. The search
// runs on a pooled Router (see NewRouter for a dedicated one).
func (t *Topology) DijkstraRoute(src, dst NodeID, init Label, relax RelaxFunc) (Route, Label, error) {
	r := t.router()
	defer t.routers.Put(r)
	return r.DijkstraRoute(src, dst, init, relax)
}

// router fetches a scratch Router from the topology's pool.
func (t *Topology) router() *Router {
	if v := t.routers.Get(); v != nil {
		return v.(*Router)
	}
	return t.NewRouter(nil)
}

type labelItem struct {
	node  NodeID
	label Label
}

// labelQueue is Dijkstra's binary min-heap of labels, ordered by label
// then node ID. It is container/heap's algorithm specialized to
// labelItem: the interface-typed Push/Pop of container/heap box every
// item, two heap allocations per relaxed link on the routing hot path.
type labelQueue []labelItem

func (q labelQueue) less(i, j int) bool {
	if q[i].label.Less(q[j].label) {
		return true
	}
	if q[j].label.Less(q[i].label) {
		return false
	}
	return q[i].node < q[j].node
}

// push adds it and restores the heap order (container/heap.Push).
func (q *labelQueue) push(it labelItem) {
	// edgelint:coldpath — amortized growth; the Router keeps the queue's
	// capacity across searches.
	*q = append(*q, it)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop removes and returns the minimum item (container/heap.Pop).
func (q *labelQueue) pop() labelItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// RouteNodes expands a route starting at src into the sequence of nodes
// visited, validating that consecutive links connect. It is used by the
// schedule verifier.
func (t *Topology) RouteNodes(src NodeID, r Route) ([]NodeID, error) {
	nodes := []NodeID{src}
	cur := src
	for i, lid := range r {
		if lid < 0 || int(lid) >= len(t.links) {
			return nil, fmt.Errorf("network: route hop %d: link %d does not exist", i, lid)
		}
		l := t.links[lid]
		var next NodeID = -1
		if l.IsBus() {
			// The bus must contain cur; the next node is determined by
			// the following hop (or the route's destination). We cannot
			// resolve it locally, so pick the unique member that makes
			// the rest of the route valid; for verification purposes we
			// defer to the caller by trying each member.
			found := false
			for _, m := range l.Members {
				if m == cur {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("network: route hop %d: node %d not on bus %d", i, cur, lid)
			}
			// Choose the member that the next link (if any) departs
			// from, otherwise leave ambiguous and take the first
			// non-cur member; the verifier checks the final node is the
			// destination separately.
			if i+1 < len(r) {
				nxt := t.links[r[i+1]]
				for _, m := range l.Members {
					if m == cur {
						continue
					}
					if nxt.IsBus() {
						for _, m2 := range nxt.Members {
							if m2 == m {
								next = m
								break
							}
						}
					} else if nxt.From == m {
						next = m
					}
					if next >= 0 {
						break
					}
				}
			}
			if next < 0 {
				for _, m := range l.Members {
					if m != cur {
						next = m
						break
					}
				}
			}
		} else {
			if l.From != cur {
				return nil, fmt.Errorf("network: route hop %d: link %d departs from node %d, not %d", i, lid, l.From, cur)
			}
			next = l.To
		}
		nodes = append(nodes, next)
		cur = next
	}
	return nodes, nil
}

// ValidateRoute checks that r is a connected path from processor src to
// processor dst.
func (t *Topology) ValidateRoute(src, dst NodeID, r Route) error {
	if src == dst {
		if len(r) != 0 {
			return fmt.Errorf("network: intra-processor route must be empty, got %d links", len(r))
		}
		return nil
	}
	if len(r) == 0 {
		return fmt.Errorf("network: empty route between distinct nodes %d and %d", src, dst)
	}
	nodes, err := t.RouteNodes(src, r)
	if err != nil {
		return err
	}
	last := nodes[len(nodes)-1]
	// For routes ending on a bus the heuristic expansion may have
	// picked the wrong member; accept if dst is on the final bus.
	if last != dst {
		fl := t.links[r[len(r)-1]]
		if fl.IsBus() {
			for _, m := range fl.Members {
				if m == dst {
					return nil
				}
			}
		}
		return fmt.Errorf("network: route ends at node %d, want %d", last, dst)
	}
	return nil
}
