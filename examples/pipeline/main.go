// Pipeline: schedule a deep streaming pipeline (a stencil sweep, like
// iterative image filters or a time-stepped simulation) on a processor
// ring, where every transfer competes for the same few cables — the
// scenario where bandwidth sharing (BBSA) shines. Also demonstrates
// JSON export for downstream tooling.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	edgesched "repro"
)

func main() {
	// 16 rows x 12 columns stencil: each task needs its three upstream
	// neighbours' tiles.
	g := edgesched.Stencil(16, 12, 30, 30)

	// A ring of six processors: transfers between non-adjacent owners
	// traverse intermediate cables, creating real multi-hop contention.
	net := edgesched.Ring(6, edgesched.Uniform(1), edgesched.Uniform(1))
	fmt.Printf("graph: %v   network: %v\n\n", g, net)

	type row struct {
		name     string
		makespan float64
		hops     float64
		routed   int
	}
	var rows []row
	var bbsa *edgesched.Schedule
	for _, alg := range []edgesched.Algorithm{edgesched.BA(), edgesched.OIHSA(), edgesched.BBSA()} {
		s, err := alg.Schedule(g, net)
		if err != nil {
			log.Fatal(err)
		}
		if err := edgesched.Verify(s); err != nil {
			log.Fatalf("%s: %v", alg.Name(), err)
		}
		cs := s.CommStats()
		rows = append(rows, row{alg.Name(), s.Makespan, cs.MeanHops, cs.RoutedEdges})
		if alg.Name() == "BBSA" {
			bbsa = s
		}
	}
	fmt.Printf("%-7s %10s %8s %12s\n", "algo", "makespan", "hops", "routed-edges")
	for _, r := range rows {
		fmt.Printf("%-7s %10.1f %8.2f %12d\n", r.name, r.makespan, r.hops, r.routed)
	}

	// Export the BBSA schedule as JSON (for a visualizer, a database,
	// or diffing across runs) and report its size.
	var buf bytes.Buffer
	if err := edgesched.WriteScheduleJSON(&buf, bbsa); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBBSA schedule JSON: %d bytes (first line: %.60s...)\n",
		buf.Len(), firstLine(buf.String()))

	// Show how much each ring cable is actually used.
	fmt.Println("\nBBSA link traffic (exclusive '#' / shared '+'):")
	if err := edgesched.WriteGantt(os.Stdout, bbsa, 76, true); err != nil {
		log.Fatal(err)
	}
}

func firstLine(s string) string {
	for i, r := range s {
		if r == '\n' {
			return s[:i]
		}
	}
	return s
}
