// Package graphio serializes task graphs and network topologies to a
// stable JSON format, so instances can be generated once, stored,
// edited by hand, and scheduled repeatedly across runs and tools.
package graphio

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dag"
	"repro/internal/network"
)

// graphDoc is the JSON shape of a task graph.
type graphDoc struct {
	Tasks []taskDoc `json:"tasks"`
	Edges []edgeDoc `json:"edges"`
}

type taskDoc struct {
	Name string  `json:"name"`
	Cost float64 `json:"cost"`
}

type edgeDoc struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Cost float64 `json:"cost"`
}

// WriteGraph serializes a task graph as indented JSON. Task IDs are
// implicit: position in the tasks array.
func WriteGraph(w io.Writer, g *dag.Graph) error {
	doc := graphDoc{}
	for _, t := range g.Tasks() {
		doc.Tasks = append(doc.Tasks, taskDoc{Name: t.Name, Cost: t.Cost})
	}
	for _, e := range g.Edges() {
		doc.Edges = append(doc.Edges, edgeDoc{From: int(e.From), To: int(e.To), Cost: e.Cost})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadGraph parses a task graph from JSON and builds it, which checks
// it. It reads r to the end; a read error is returned wrapped.
func ReadGraph(r io.Reader) (*dag.Graph, error) {
	var doc graphDoc
	if err := decode(r, &doc); err != nil {
		return nil, err
	}
	return doc.build()
}

// build makes the graph a decoded document describes.
func (doc *graphDoc) build() (*dag.Graph, error) {
	var b dag.Builder
	for _, t := range doc.Tasks {
		b.AddTask(t.Name, t.Cost)
	}
	for _, e := range doc.Edges {
		b.AddEdge(dag.TaskID(e.From), dag.TaskID(e.To), e.Cost)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return g, nil
}

// topologyDoc is the JSON shape of a network topology.
type topologyDoc struct {
	Nodes []nodeDoc `json:"nodes"`
	Links []linkDoc `json:"links"`
}

type nodeDoc struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "processor" or "switch"
	// Speed is required for processors, ignored for switches.
	Speed float64 `json:"speed,omitempty"`
}

type linkDoc struct {
	// Point-to-point links use From/To (node indices); Duplex makes
	// the reader add both directions.
	From   int  `json:"from,omitempty"`
	To     int  `json:"to,omitempty"`
	Duplex bool `json:"duplex,omitempty"`
	// Members, when non-empty, declares a hyperedge (bus) instead.
	Members []int   `json:"members,omitempty"`
	Speed   float64 `json:"speed"`
}

// WriteTopology serializes a topology as indented JSON. Duplex pairs
// are not re-merged: every directed link appears individually, so the
// round trip is exact.
func WriteTopology(w io.Writer, t *network.Topology) error {
	doc := topologyDoc{}
	for id := range network.NodeID(t.NumNodes()) {
		n := t.Node(id)
		nd := nodeDoc{Name: n.Name, Kind: n.Kind.String()}
		if n.Kind == network.Processor {
			nd.Speed = n.Speed
		}
		doc.Nodes = append(doc.Nodes, nd)
	}
	for id := range network.LinkID(t.NumLinks()) {
		l := t.Link(id)
		if l.IsBus() {
			ld := linkDoc{Speed: l.Speed}
			for _, m := range l.Members() {
				ld.Members = append(ld.Members, int(m))
			}
			doc.Links = append(doc.Links, ld)
			continue
		}
		doc.Links = append(doc.Links, linkDoc{From: int(l.From), To: int(l.To), Speed: l.Speed})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadTopology parses a topology from JSON and builds it, which checks
// it. It reads r to the end; a read error is returned wrapped.
func ReadTopology(r io.Reader) (*network.Topology, error) {
	var doc topologyDoc
	if err := decode(r, &doc); err != nil {
		return nil, err
	}
	return doc.build()
}

// build makes the topology a decoded document describes. A node of
// unknown kind is the document's own error; Build checks the rest.
func (doc *topologyDoc) build() (*network.Topology, error) {
	var b network.Builder
	for i, n := range doc.Nodes {
		switch n.Kind {
		case "processor":
			b.AddProcessor(n.Name, n.Speed)
		case "switch":
			b.AddSwitch(n.Name)
		default:
			return nil, fmt.Errorf("graphio: node %d has unknown kind %q", i, n.Kind)
		}
	}
	for _, l := range doc.Links {
		switch {
		case len(l.Members) > 0:
			members := make([]network.NodeID, len(l.Members))
			for i, m := range l.Members {
				members[i] = network.NodeID(m)
			}
			b.AddBus(members, l.Speed)
		case l.Duplex:
			b.AddDuplex(network.NodeID(l.From), network.NodeID(l.To), l.Speed)
		default:
			b.AddLink(network.NodeID(l.From), network.NodeID(l.To), l.Speed)
		}
	}
	t, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return t, nil
}
