// Package network models the communication system of a parallel or
// distributed machine as the topology graph TG = {N, P, D, H} of
// Sinnen & Sousa's edge-scheduling model: N is the set of network nodes
// (processors and switches), P ⊆ N the processors, D the set of
// directed point-to-point links, and H the set of hyperedges (buses,
// i.e. multidirectional shared links).
//
// The package also provides the two routing algorithms the paper uses:
// breadth-first minimal routing (BA) and a modified Dijkstra search
// whose distance metric is supplied by the caller (OIHSA/BBSA §4.3).
package network

import (
	"fmt"
	"sort"
	"sync"
)

// NodeID identifies a network node (processor or switch).
type NodeID int

// LinkID identifies a communication resource: either a directed
// point-to-point link or a hyperedge (bus). Hyperedges occupy a single
// LinkID even though they connect many nodes, because they are a single
// contended resource.
type LinkID int

// NodeKind distinguishes processors from switches.
type NodeKind int

const (
	// Processor nodes execute tasks.
	Processor NodeKind = iota
	// Switch nodes only forward communication.
	Switch
)

func (k NodeKind) String() string {
	switch k {
	case Processor:
		return "processor"
	case Switch:
		return "switch"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a vertex of the topology graph.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string
	// Speed is the processing speed s(P) for processors; it is
	// meaningless for switches and left at 0.
	Speed float64
}

// Link is a communication resource. A point-to-point link is directed
// from From to To; a hyperedge (bus) has Members instead and carries
// communication between any ordered pair of members.
type Link struct {
	ID   LinkID
	From NodeID // point-to-point only
	To   NodeID // point-to-point only
	// Members is non-nil for hyperedges and lists the attached nodes.
	Members []NodeID
	// Speed is the data transfer speed s(L): an edge with
	// communication cost c occupies the link for c/Speed time units.
	Speed float64
}

// IsBus reports whether the link is a hyperedge.
func (l Link) IsBus() bool { return l.Members != nil }

// hop is one adjacency entry: traversing link Link leads to node To.
type hop struct {
	Link LinkID
	To   NodeID
}

// Topology is the network graph. Build it with AddProcessor, AddSwitch,
// AddLink, AddDuplex and AddBus; it is immutable during scheduling —
// concurrent Schedule requests and the shared route cache depend on it
// never changing after construction.
type Topology struct {
	nodes []Node
	links []Link
	adj   [][]hop  // outgoing hops per node, deterministic order
	procs []NodeID // processor IDs in insertion order

	// routers pools scratch Routers for the one-shot BFSRoute and
	// DijkstraRoute convenience methods, so casual callers get buffer
	// reuse without holding a Router themselves.
	routers sync.Pool
}

// NewTopology returns an empty topology.
func NewTopology() *Topology { return &Topology{} }

// AddProcessor adds a processor with the given name and speed and
// returns its node ID.
func (t *Topology) AddProcessor(name string, speed float64) NodeID {
	id := NodeID(len(t.nodes))
	if name == "" {
		name = fmt.Sprintf("P%d", len(t.procs))
	}
	t.nodes = append(t.nodes, Node{ID: id, Kind: Processor, Name: name, Speed: speed})
	t.adj = append(t.adj, nil)
	t.procs = append(t.procs, id)
	return id
}

// AddSwitch adds a switch with the given name and returns its node ID.
func (t *Topology) AddSwitch(name string) NodeID {
	id := NodeID(len(t.nodes))
	if name == "" {
		name = fmt.Sprintf("S%d", id)
	}
	t.nodes = append(t.nodes, Node{ID: id, Kind: Switch, Name: name})
	t.adj = append(t.adj, nil)
	return id
}

// AddLink adds a directed point-to-point link and returns its ID.
// It panics on invalid endpoints or non-positive speed.
func (t *Topology) AddLink(from, to NodeID, speed float64) LinkID {
	t.checkNode(from)
	t.checkNode(to)
	if from == to {
		panic(fmt.Sprintf("network: AddLink: self-link on node %d", from))
	}
	if speed <= 0 {
		panic(fmt.Sprintf("network: AddLink: non-positive speed %v", speed))
	}
	id := LinkID(len(t.links))
	t.links = append(t.links, Link{ID: id, From: from, To: to, Speed: speed})
	t.adj[from] = append(t.adj[from], hop{Link: id, To: to})
	return id
}

// AddDuplex adds a pair of opposite directed links with the same speed
// and returns both IDs (forward, backward). This models a full-duplex
// cable as two independent contended resources, the common convention
// in the contention-aware scheduling literature.
func (t *Topology) AddDuplex(a, b NodeID, speed float64) (LinkID, LinkID) {
	return t.AddLink(a, b, speed), t.AddLink(b, a, speed)
}

// AddBus adds a hyperedge (shared bus) connecting all members and
// returns its ID. Any ordered pair of distinct members can communicate
// over the bus, all sharing one contended resource.
func (t *Topology) AddBus(members []NodeID, speed float64) LinkID {
	if len(members) < 2 {
		panic("network: AddBus: needs at least two members")
	}
	if speed <= 0 {
		panic(fmt.Sprintf("network: AddBus: non-positive speed %v", speed))
	}
	seen := map[NodeID]bool{}
	for _, m := range members {
		t.checkNode(m)
		if seen[m] {
			panic(fmt.Sprintf("network: AddBus: duplicate member %d", m))
		}
		seen[m] = true
	}
	id := LinkID(len(t.links))
	ms := append([]NodeID(nil), members...)
	t.links = append(t.links, Link{ID: id, Members: ms, Speed: speed})
	for _, m := range members {
		for _, o := range members {
			if o != m {
				t.adj[m] = append(t.adj[m], hop{Link: id, To: o})
			}
		}
	}
	return id
}

func (t *Topology) checkNode(id NodeID) {
	if id < 0 || int(id) >= len(t.nodes) {
		panic(fmt.Sprintf("network: node %d does not exist", id))
	}
}

// NumNodes reports the number of nodes (processors + switches).
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumLinks reports the number of links (including hyperedges).
func (t *Topology) NumLinks() int { return len(t.links) }

// NumProcessors reports the number of processors.
func (t *Topology) NumProcessors() int { return len(t.procs) }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) Node { return t.nodes[id] }

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// Nodes returns all nodes in ID order. The slice is shared; do not modify.
func (t *Topology) Nodes() []Node { return t.nodes }

// Links returns all links in ID order. The slice is shared; do not modify.
func (t *Topology) Links() []Link { return t.links }

// Processors returns the processor node IDs in insertion order.
// The slice is shared; do not modify.
func (t *Topology) Processors() []NodeID { return t.procs }

// MeanLinkSpeed returns the average transfer speed over all links
// (the paper's MLS). It returns 1 for a topology without links so that
// division by MLS stays meaningful.
func (t *Topology) MeanLinkSpeed() float64 {
	if len(t.links) == 0 {
		return 1
	}
	sum := 0.0
	for _, l := range t.links {
		sum += l.Speed
	}
	return sum / float64(len(t.links))
}

// HarmonicMeanLinkSpeed returns the harmonic mean of link speeds: the
// speed whose reciprocal is the average per-unit transfer time. For
// estimating the expected duration of a transfer over an unknown link
// this is the correct averaging (transfer times are reciprocals of
// speeds); on heterogeneous networks it is substantially lower than
// the arithmetic mean. Returns 1 for a topology without links.
func (t *Topology) HarmonicMeanLinkSpeed() float64 {
	if len(t.links) == 0 {
		return 1
	}
	sum := 0.0
	for _, l := range t.links {
		sum += 1 / l.Speed
	}
	return float64(len(t.links)) / sum
}

// Validate checks that every pair of processors can communicate, that
// all speeds are positive, and that adjacency is consistent.
func (t *Topology) Validate() error {
	for _, n := range t.nodes {
		if n.Kind == Processor && n.Speed <= 0 {
			return fmt.Errorf("network: processor %s has non-positive speed %v", n.Name, n.Speed)
		}
	}
	for _, l := range t.links {
		if l.Speed <= 0 {
			return fmt.Errorf("network: link %d has non-positive speed %v", l.ID, l.Speed)
		}
	}
	if len(t.procs) == 0 {
		return fmt.Errorf("network: no processors")
	}
	// Reachability from the first processor must cover all processors.
	reach := t.reachableFrom(t.procs[0])
	for _, p := range t.procs {
		if !reach[p] {
			return fmt.Errorf("network: processor %s unreachable from %s",
				t.nodes[p].Name, t.nodes[t.procs[0]].Name)
		}
	}
	return nil
}

func (t *Topology) reachableFrom(src NodeID) []bool {
	seen := make([]bool, len(t.nodes))
	seen[src] = true
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, h := range t.adj[n] {
			if !seen[h.To] {
				seen[h.To] = true
				queue = append(queue, h.To)
			}
		}
	}
	return seen
}

// Neighbors returns the outgoing hops of a node as (link, destination)
// pairs in deterministic order. The slice is shared; do not modify.
func (t *Topology) Neighbors(id NodeID) []struct {
	Link LinkID
	To   NodeID
} {
	out := make([]struct {
		Link LinkID
		To   NodeID
	}, len(t.adj[id]))
	for i, h := range t.adj[id] {
		out[i].Link = h.Link
		out[i].To = h.To
	}
	return out
}

// Degrees returns the out-degree of every node, useful for topology
// statistics in experiments.
func (t *Topology) Degrees() []int {
	out := make([]int, len(t.nodes))
	for i := range t.adj {
		out[i] = len(t.adj[i])
	}
	return out
}

// String returns a short human-readable summary.
func (t *Topology) String() string {
	sw := len(t.nodes) - len(t.procs)
	return fmt.Sprintf("net{procs:%d switches:%d links:%d}", len(t.procs), sw, len(t.links))
}

// SortedProcessorNames returns the processor names sorted
// lexicographically; handy for stable test output.
func (t *Topology) SortedProcessorNames() []string {
	names := make([]string, 0, len(t.procs))
	for _, p := range t.procs {
		names = append(names, t.nodes[p].Name)
	}
	sort.Strings(names)
	return names
}
