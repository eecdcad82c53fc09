// Quickstart: build a small task graph and a switched cluster, then
// compare the three contention-aware schedulers on it and show the
// winner's Gantt chart.
package main

import (
	"fmt"
	"log"
	"os"

	edgesched "repro"
)

func main() {
	// A little image-processing style pipeline: load, two parallel
	// filter stages (each with three workers), merge, encode.
	b := edgesched.NewGraph()
	load := b.AddTask("load", 20)
	merge := b.AddTask("merge", 30)
	encode := b.AddTask("encode", 40)
	b.AddEdge(merge, encode, 30)
	for stage := 0; stage < 2; stage++ {
		for w := 0; w < 3; w++ {
			f := b.AddTask(fmt.Sprintf("filter%d_%d", stage, w), 50)
			b.AddEdge(load, f, 30) // ship tiles out
			b.AddEdge(f, merge, 30)
		}
	}
	// Build checks the graph once; the schedulers below share it as is.
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Four identical processors around one switch: every transfer
	// shares the hub's cables, so communication contention is real.
	net := edgesched.Star(4, edgesched.Uniform(1), edgesched.Uniform(1))

	fmt.Printf("graph: %v   network: %v\n\n", g, net)
	var best *edgesched.Schedule
	for _, alg := range []edgesched.Algorithm{edgesched.BA(), edgesched.OIHSA(), edgesched.BBSA()} {
		s, err := alg.Schedule(g, net)
		if err != nil {
			log.Fatal(err)
		}
		if err := edgesched.Verify(s); err != nil {
			log.Fatalf("%s produced an invalid schedule: %v", alg.Name(), err)
		}
		fmt.Printf("%-6s makespan = %7.2f (verified)\n", alg.Name(), s.Makespan)
		if best == nil || s.Makespan < best.Makespan {
			best = s
		}
	}

	fmt.Printf("\nbest schedule (%s):\n", best.Algorithm)
	if err := edgesched.WriteGantt(os.Stdout, best, 90, true); err != nil {
		log.Fatal(err)
	}
}
