package network

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Builder collects the nodes and links of a topology. Build checks them
// and returns the Topology. The zero value is an empty builder; a
// Builder is not safe for concurrent use.
type Builder struct {
	nodes []Node
	links []Link
	procs []NodeID
	// entry[i] is the place of the AddLink, AddDuplex or AddBus call
	// that added link i among those calls, counting from 0: the number
	// Build's errors give the link, so that both links of a duplex pair
	// are the one entry the caller made.
	entry   []int
	entries int
}

// AddProcessor adds a processor with the given name and speed and
// returns its node ID. An empty name becomes "P<i>", i the processor's
// index among the processors.
func (b *Builder) AddProcessor(name string, speed float64) NodeID {
	id := NodeID(len(b.nodes))
	if name == "" {
		name = fmt.Sprintf("P%d", len(b.procs))
	}
	b.nodes = append(b.nodes, Node{ID: id, Kind: Processor, Name: name, Speed: speed})
	b.procs = append(b.procs, id)
	return id
}

// AddSwitch adds a switch with the given name and returns its node ID.
// An empty name becomes "S<id>".
func (b *Builder) AddSwitch(name string) NodeID {
	id := NodeID(len(b.nodes))
	if name == "" {
		name = fmt.Sprintf("S%d", id)
	}
	b.nodes = append(b.nodes, Node{ID: id, Kind: Switch, Name: name})
	return id
}

// AddLink adds a directed point-to-point link and returns its ID.
// Build checks the link.
func (b *Builder) AddLink(from, to NodeID, speed float64) LinkID {
	b.entries++
	return b.addLink(Link{From: from, To: to, Speed: speed})
}

// addLink adds l as a link of the current entry and returns its ID.
func (b *Builder) addLink(l Link) LinkID {
	l.ID = LinkID(len(b.links))
	b.links = append(b.links, l)
	b.entry = append(b.entry, b.entries-1)
	return l.ID
}

// AddDuplex adds a pair of opposite directed links with the same speed
// and returns both IDs (forward, backward). This models a full-duplex
// cable as two independent contended resources, the common convention
// in the contention-aware scheduling literature.
func (b *Builder) AddDuplex(a, c NodeID, speed float64) (LinkID, LinkID) {
	b.entries++
	fwd := b.addLink(Link{From: a, To: c, Speed: speed})
	return fwd, b.addLink(Link{From: c, To: a, Speed: speed})
}

// AddBus adds a hyperedge (shared bus) connecting all members and
// returns its ID. Any ordered pair of distinct members can communicate
// over the bus, all sharing one contended resource. The members are
// copied; Build checks them.
func (b *Builder) AddBus(members []NodeID, speed float64) LinkID {
	b.entries++
	ms := append(make([]NodeID, 0, len(members)), members...) // non-nil: a bus
	return b.addLink(Link{members: ms, Speed: speed})
}

// Build checks the nodes and links added so far and returns them as a
// Topology. It rejects a processor or link speed that is not positive,
// a link endpoint or bus member outside the nodes, a self-link, a bus
// with fewer than two members or a member listed twice, a topology
// without processors, and a processor that cannot reach another; a
// link error names the link by its entry, the place of the AddLink,
// AddDuplex or AddBus call that added it, counting from 0. Then
// it stores the adjacency, the mean link speed and the block-cut tree
// every Router shares. The builder may go on adding to make further
// topologies; one built earlier does not change.
func (b *Builder) Build() (*Topology, error) {
	n := len(b.nodes)
	for _, nd := range b.nodes {
		if nd.Kind == Processor && !(nd.Speed > 0) {
			return nil, fmt.Errorf("network: processor %d (%s) has non-positive speed %v", nd.ID, nd.Name, nd.Speed)
		}
	}
	outside := func(v NodeID) bool { return v < 0 || int(v) >= n }
	// arcs counts the hops of the undirected view, the largest adjacency
	// Build makes; speeds sums the link speeds in ID order.
	arcs, speeds := 0, 0.0
	for _, l := range b.links {
		entry := b.entry[l.ID]
		if !(l.Speed > 0) {
			return nil, fmt.Errorf("network: link %d has non-positive speed %v", entry, l.Speed)
		}
		speeds += l.Speed
		if !l.IsBus() {
			switch {
			case outside(l.From) || outside(l.To):
				return nil, fmt.Errorf("network: link %d (%d->%d) references a node outside [0,%d)", entry, l.From, l.To, n)
			case l.From == l.To:
				return nil, fmt.Errorf("network: link %d is a self-link on node %d", entry, l.From)
			}
			arcs += 2
			continue
		}
		if len(l.members) < 2 {
			return nil, fmt.Errorf("network: bus %d needs at least two members", entry)
		}
		for i, m := range l.members {
			if outside(m) {
				return nil, fmt.Errorf("network: bus %d lists node %d outside [0,%d)", entry, m, n)
			}
			if slices.Contains(l.members[:i], m) {
				return nil, fmt.Errorf("network: bus %d lists node %d twice", entry, m)
			}
		}
		arcs += len(l.members) * (len(l.members) - 1)
	}
	if len(b.procs) == 0 {
		return nil, errors.New("network: no processors")
	}
	if n > math.MaxInt32 || len(b.links) > math.MaxInt32 || arcs > math.MaxInt32 {
		return nil, fmt.Errorf("network: %d nodes, %d links and %d hops exceed 32-bit IDs", n, len(b.links), arcs)
	}
	t := &Topology{
		nodes: b.nodes[:n:n],
		links: b.links[:len(b.links):len(b.links)],
		procs: b.procs[:len(b.procs):len(b.procs)],
		mls:   1,
	}
	if len(t.links) > 0 {
		t.mls = speeds / float64(len(t.links))
	}
	t.off, t.hops = adjacency(n, t.links, true, false)
	if err := t.checkReach(); err != nil {
		return nil, err
	}
	t.bt = newBlockTree(t)
	return t, nil
}

// adjacency returns links' hops grouped by departure node, node u's in
// hops[off[u]:off[u+1]] in link ID order: a point-to-point link's hop
// along it if fwd and against it if rev, a bus's from each member to
// each other member in member order.
func adjacency(n int, links []Link, fwd, rev bool) (off []int32, hops []hop) {
	off = make([]int32, n+1)
	var next []int32
	for pass := range 2 { // count the hops, then place them
		put := func(from, to NodeID, link LinkID) {
			if pass == 0 {
				off[from+1]++
				return
			}
			hops[next[from]] = hop{Link: int32(link), To: int32(to)}
			next[from]++
		}
		if pass == 1 {
			for u := range n {
				off[u+1] += off[u]
			}
			next, hops = slices.Clone(off[:n]), make([]hop, off[n])
		}
		for _, l := range links {
			if fwd && !l.IsBus() {
				put(l.From, l.To, l.ID)
			}
			if rev && !l.IsBus() {
				put(l.To, l.From, l.ID)
			}
			for _, m := range l.members {
				for _, o := range l.members {
					if o != m {
						put(m, o, l.ID)
					}
				}
			}
		}
	}
	return off, hops
}

// checkReach reports a processor that cannot reach the first one or
// be reached from it, searching t's hops forward and reversed. If none
// is, every processor reaches every other.
func (t *Topology) checkReach() error {
	first := t.procs[0]
	roff, rhops := adjacency(len(t.nodes), t.links, false, true)
	out, in := reach(first, t.off, t.hops), reach(first, roff, rhops)
	for _, p := range t.procs {
		if !out[p] || !in[p] {
			from, to := first, p
			if out[p] {
				from, to = p, first
			}
			return fmt.Errorf("network: processor %d (%s) cannot reach processor %d (%s)",
				from, t.nodes[from].Name, to, t.nodes[to].Name)
		}
	}
	return nil
}

// reach marks the nodes a breadth-first search from src reaches over
// the hops off/hops.
func reach(src NodeID, off []int32, hops []hop) []bool {
	seen := make([]bool, len(off)-1)
	seen[src] = true
	for queue := []int32{int32(src)}; len(queue) > 0; queue = queue[1:] {
		for _, h := range hops[off[queue[0]]:off[queue[0]+1]] {
			if !seen[h.To] {
				seen[h.To] = true
				queue = append(queue, h.To)
			}
		}
	}
	return seen
}
