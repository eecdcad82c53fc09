package network

// referenceBFSRoute is the per-pair breadth-first search without the
// Router's BFS trees and path buffer, kept as the reference the
// Router's BFSRoute and forced-pair routes are compared against: it
// stops when it first reaches dst and unwinds into a fresh route.
// Fresh scratch per call, so nothing is shared with the Router under
// test.
func referenceBFSRoute(t *Topology, src, dst NodeID) (Route, error) {
	t.checkNode(src)
	t.checkNode(dst)
	if src == dst {
		return Route{}, nil
	}
	seen := make([]bool, len(t.nodes))
	prev := make([]hop, len(t.nodes))
	seen[src] = true
	queue := []NodeID{src}
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		for _, h := range t.out(n) {
			if seen[h.To] {
				continue
			}
			seen[h.To] = true
			prev[h.To] = hop{Link: h.Link, To: int32(n)}
			if NodeID(h.To) == dst {
				return unwind(prev, src, dst), nil
			}
			queue = append(queue, NodeID(h.To))
		}
	}
	return nil, &ErrNoRoute{From: src, To: dst}
}

// unwind returns the route to dst along the predecessor chain from src
// in a fresh slice.
func unwind(prev []hop, src, dst NodeID) Route {
	return fillRoute(make(Route, routeLen(prev, src, dst)), prev, dst)
}

// referenceDijkstraRoute is the modified Dijkstra search without the
// block restriction and the Router-owned path buffer, kept as the
// reference FuzzDijkstraRoute compares Router.DijkstraRoute against:
// it relaxes every link into every node that is not yet closed, and
// unwinds into a fresh route. Fresh scratch per call, so
// nothing is shared with the Router under test.
func referenceDijkstraRoute(t *Topology, src, dst NodeID, init Label, relax RelaxFunc) (Route, Label, error) {
	t.checkNode(src)
	t.checkNode(dst)
	if src == dst {
		return Route{}, init, nil
	}
	n := len(t.nodes)
	open := make([]bool, n)
	closed := make([]bool, n)
	prev := make([]hop, n)
	best := make([]Label, n)
	var pq labelQueue
	best[src] = init
	open[src] = true
	pq.push(labelItem{node: src, label: init})
	for len(pq) > 0 {
		it := pq.pop()
		if closed[it.node] {
			continue
		}
		if best[it.node].Less(it.label) {
			continue // stale entry
		}
		closed[it.node] = true
		if it.node == dst {
			return unwind(prev, src, dst), best[dst], nil
		}
		for _, h := range t.out(it.node) {
			if closed[h.To] {
				continue
			}
			nl := relax(t.links[h.Link], best[it.node])
			nl.Hops = best[it.node].Hops + 1
			if !open[h.To] || nl.Less(best[h.To]) {
				best[h.To] = nl
				prev[h.To] = hop{Link: h.Link, To: int32(it.node)}
				open[h.To] = true
				pq.push(labelItem{node: NodeID(h.To), label: nl})
			}
		}
	}
	return nil, Label{}, &ErrNoRoute{From: src, To: dst}
}
