// Package graphio serializes task graphs and network topologies to a
// stable JSON format, so instances can be generated once, stored,
// edited by hand, and scheduled repeatedly across runs and tools.
package graphio

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

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
	for _, n := range t.Nodes() {
		nd := nodeDoc{Name: n.Name, Kind: n.Kind.String()}
		if n.Kind == network.Processor {
			nd.Speed = n.Speed
		}
		doc.Nodes = append(doc.Nodes, nd)
	}
	for _, l := range t.Links() {
		if l.IsBus() {
			ld := linkDoc{Speed: l.Speed}
			for _, m := range l.Members {
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

// ReadTopology parses a topology from JSON and validates it. It reads
// r to the end; a read error is returned wrapped.
func ReadTopology(r io.Reader) (*network.Topology, error) {
	var doc topologyDoc
	if err := decode(r, &doc); err != nil {
		return nil, err
	}
	return doc.build()
}

// build makes the topology a decoded document describes and validates
// it.
func (doc *topologyDoc) build() (*network.Topology, error) {
	t := network.NewTopology()
	for i, n := range doc.Nodes {
		switch n.Kind {
		case "processor":
			if n.Speed <= 0 {
				return nil, fmt.Errorf("graphio: processor node %d needs a positive speed", i)
			}
			t.AddProcessor(n.Name, n.Speed)
		case "switch":
			t.AddSwitch(n.Name)
		default:
			return nil, fmt.Errorf("graphio: node %d has unknown kind %q", i, n.Kind)
		}
	}
	nn := len(doc.Nodes)
	check := func(i, v int) error {
		if v < 0 || v >= nn {
			return fmt.Errorf("graphio: link %d references node %d outside [0,%d)", i, v, nn)
		}
		return nil
	}
	for i, l := range doc.Links {
		if l.Speed <= 0 {
			return nil, fmt.Errorf("graphio: link %d needs a positive speed", i)
		}
		if len(l.Members) > 0 {
			members := make([]network.NodeID, 0, len(l.Members))
			for _, m := range l.Members {
				if err := check(i, m); err != nil {
					return nil, err
				}
				if slices.Contains(members, network.NodeID(m)) {
					return nil, fmt.Errorf("graphio: bus link %d lists node %d twice", i, m)
				}
				members = append(members, network.NodeID(m))
			}
			if len(members) < 2 {
				return nil, fmt.Errorf("graphio: bus link %d needs at least two members", i)
			}
			t.AddBus(members, l.Speed)
			continue
		}
		if err := check(i, l.From); err != nil {
			return nil, err
		}
		if err := check(i, l.To); err != nil {
			return nil, err
		}
		if l.From == l.To {
			return nil, fmt.Errorf("graphio: link %d is a self-link on node %d", i, l.From)
		}
		if l.Duplex {
			t.AddDuplex(network.NodeID(l.From), network.NodeID(l.To), l.Speed)
		} else {
			t.AddLink(network.NodeID(l.From), network.NodeID(l.To), l.Speed)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return t, nil
}
