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
	"slices"
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
// from From to To; a hyperedge (bus) has members instead and carries
// communication between any ordered pair of them.
type Link struct {
	ID   LinkID
	From NodeID // point-to-point only
	To   NodeID // point-to-point only
	// members is non-nil for hyperedges and lists the attached nodes.
	members []NodeID
	// Speed is the data transfer speed s(L): an edge with
	// communication cost c occupies the link for c/Speed time units.
	Speed float64
}

// IsBus reports whether the link is a hyperedge.
func (l Link) IsBus() bool { return l.members != nil }

// Members returns a copy of a hyperedge's attached nodes, nil for a
// point-to-point link.
func (l Link) Members() []NodeID { return slices.Clone(l.members) }

// onBus reports whether n is attached to the hyperedge l.
func (l Link) onBus(n NodeID) bool { return slices.Contains(l.members, n) }

// hop is one adjacency entry: traversing link Link leads to node To.
// Both fit in 32 bits (Build checks), which halves the adjacency and
// every Router's BFS tree arena.
type hop struct {
	Link int32
	To   int32
}

// Topology is the network graph, checked and indexed once by
// Builder.Build and immutable from then on: it has no mutator and hands
// out nothing writable, so concurrent Schedule requests and every
// Router over it share its adjacency and block-cut tree.
type Topology struct {
	nodes []Node
	links []Link
	procs []NodeID // processor IDs in insertion order
	// Node u's outgoing hops are hops[off[u]:off[u+1]], in link ID
	// order, a bus's to its other members in member order.
	off  []int32
	hops []hop
	mls  float64
	bt   blockTree
}

// out returns node u's outgoing hops.
func (t *Topology) out(u NodeID) []hop { return t.hops[t.off[u]:t.off[u+1]] }

// checkNode panics on a node ID outside the topology: a route search's
// ends are the caller's to get right.
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

// Processor returns the node ID of the i-th processor, in the order
// they were added, for i in [0, NumProcessors()).
func (t *Topology) Processor(i int) NodeID { return t.procs[i] }

// MeanLinkSpeed returns the average transfer speed over all links
// (the paper's MLS). It is 1 for a topology without links, so that
// division by MLS stays meaningful.
func (t *Topology) MeanLinkSpeed() float64 { return t.mls }

// String returns a short human-readable summary.
func (t *Topology) String() string {
	sw := len(t.nodes) - len(t.procs)
	return fmt.Sprintf("net{procs:%d switches:%d links:%d}", len(t.procs), sw, len(t.links))
}
