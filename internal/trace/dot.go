package trace

import (
	"fmt"
	"io"

	"repro/internal/dag"
	"repro/internal/network"
)

// WriteDAGDOT renders the task graph in Graphviz DOT: nodes labelled
// "name (cost)", edges labelled with their communication cost.
func WriteDAGDOT(w io.Writer, g *dag.Graph) error {
	if _, err := fmt.Fprintln(w, "digraph tasks {"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "  rankdir=TB; node [shape=ellipse];"); err != nil {
		return err
	}
	for _, t := range g.Tasks() {
		if _, err := fmt.Fprintf(w, "  n%d [label=\"%s\\n%.4g\"];\n", t.ID, t.Name, t.Cost); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(w, "  n%d -> n%d [label=\"%.4g\"];\n", e.From, e.To, e.Cost); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// WriteTopologyDOT renders the network topology in Graphviz DOT.
// Processors are boxes, switches diamonds; duplex link pairs are drawn
// once as an undirected-looking edge, lone directed links with arrows,
// and hyperedges (buses) as a hexagonal junction node.
func WriteTopologyDOT(w io.Writer, t *network.Topology) error {
	if _, err := fmt.Fprintln(w, "graph topology {"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "  layout=neato; overlap=false;"); err != nil {
		return err
	}
	for id := range network.NodeID(t.NumNodes()) {
		n := t.Node(id)
		shape := "box"
		label := n.Name
		if n.Kind == network.Switch {
			shape = "diamond"
		} else {
			label = fmt.Sprintf("%s\\ns=%.4g", n.Name, n.Speed)
		}
		if _, err := fmt.Fprintf(w, "  %s [shape=%s, label=\"%s\"];\n", sanitizeID(n.Name), shape, label); err != nil {
			return err
		}
	}
	// Collect duplex pairs so each cable prints once.
	type pair struct{ a, b network.NodeID }
	seen := map[pair]bool{}
	for id := range network.LinkID(t.NumLinks()) {
		l := t.Link(id)
		if l.IsBus() {
			bus := fmt.Sprintf("bus%d", l.ID)
			if _, err := fmt.Fprintf(w, "  %s [shape=hexagon, label=\"bus %.4g\"];\n", bus, l.Speed); err != nil {
				return err
			}
			for _, m := range l.Members() {
				if _, err := fmt.Fprintf(w, "  %s -- %s;\n", sanitizeID(t.Node(m).Name), bus); err != nil {
					return err
				}
			}
			continue
		}
		p := pair{l.From, l.To}
		rp := pair{l.To, l.From}
		if seen[rp] {
			continue // second direction of a duplex pair
		}
		seen[p] = true
		from := sanitizeID(t.Node(l.From).Name)
		to := sanitizeID(t.Node(l.To).Name)
		if _, err := fmt.Fprintf(w, "  %s -- %s [label=\"%.4g\"];\n", from, to, l.Speed); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
