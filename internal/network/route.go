package network

import "fmt"

// Route is a path through the network: the ordered list of links an
// edge's communication traverses from a source processor to a target
// processor. An intra-processor route is the empty slice.
type Route []LinkID

// ErrNoRoute is returned when no path exists between two nodes.
type ErrNoRoute struct {
	From, To NodeID
}

func (e *ErrNoRoute) Error() string {
	return fmt.Sprintf("network: no route from node %d to node %d", e.From, e.To)
}

// routeLen counts the links on the predecessor chain from src to dst.
func routeLen(prev []hop, src, dst NodeID) int {
	k := 0
	for n := dst; n != src; n = prev[n].To {
		k++
	}
	return k
}

// fillRoute writes the last len(route) links of the predecessor chain
// ending at dst into route, in travel order, and returns it.
func fillRoute(route Route, prev []hop, dst NodeID) Route {
	for i, n := len(route)-1, dst; i >= 0; i, n = i-1, prev[n].To {
		route[i] = prev[n].Link
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
	// The Router keeps the queue's capacity across searches.
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
	// Check every hop first: a bus hop reads the link after it.
	for i, lid := range r {
		if lid < 0 || int(lid) >= len(t.links) {
			return nil, fmt.Errorf("network: route hop %d: link %d does not exist", i, lid)
		}
	}
	nodes := []NodeID{src}
	cur := src
	for i, lid := range r {
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
