// Shuffle: a MapReduce all-to-all shuffle over a dumbbell network
// (two racks joined by one trunk) — the classic network-bound
// workload. Compares the three schedulers and the switching/packet
// extensions on the same instance.
package main

import (
	"fmt"
	"log"

	edgesched "repro"

	"repro/internal/sched"
)

func main() {
	// 8 mappers, 4 reducers, heavy shuffle partitions.
	g := edgesched.MapReduce(8, 4, 50, 120, 200)
	if err := g.Validate(); err != nil {
		log.Fatal(err)
	}
	// Two racks of 4, trunk at half the rack-link speed.
	net := edgesched.Dumbbell(4, 4, edgesched.Uniform(1), edgesched.Uniform(2), 1)
	if err := net.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %v   network: %v\n\n", g, net)

	show := func(name string, a edgesched.Algorithm) float64 {
		s, err := a.Schedule(g, net)
		if err != nil {
			log.Fatal(err)
		}
		if err := edgesched.Verify(s); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		cs := s.CommStats()
		fmt.Printf("%-22s makespan %9.1f   (routed %d edges, mean %.1f hops)\n",
			name, s.Makespan, cs.RoutedEdges, cs.MeanHops)
		return s.Makespan
	}

	show("BA", edgesched.BA())
	show("OIHSA", edgesched.OIHSA())
	show("BBSA", edgesched.BBSA())

	// Extensions on the OIHSA stack.
	base := sched.NewOIHSA().Opts
	sf := base
	sf.Switching = sched.StoreAndForward
	show("OIHSA store-and-fwd", edgesched.Custom("OIHSA/sf", sf))
	pk := base
	pk.Engine = sched.EnginePackets
	pk.PacketSize = 50
	show("OIHSA packets(50)", edgesched.Custom("OIHSA/pkt", pk))
	eager := base
	eager.CommStart = sched.CommAtSourceFinish
	show("OIHSA eager-start", edgesched.Custom("OIHSA/eager", eager))
}
