// Heterogeneous cluster: schedule a Gaussian-elimination task graph on
// a machine mixing fast and slow processors and links, and show how
// much of the classic (contention-free) model's prediction survives
// contact with the network.
package main

import (
	"fmt"
	"log"

	edgesched "repro"
)

func main() {
	// Gaussian elimination on a 12x12 matrix: a classic scheduling
	// benchmark with a shrinking wavefront of parallelism.
	g := edgesched.GaussianElimination(12, 40, 40)

	// A two-level cluster: one rack of four fast processors on fast
	// links, one rack of four slow processors on slow links, joined by
	// a single trunk — classic heterogeneous contention.
	b := edgesched.NewTopology()
	core := b.AddSwitch("core")
	fast := b.AddSwitch("rack-fast")
	slow := b.AddSwitch("rack-slow")
	b.AddDuplex(fast, core, 4)
	b.AddDuplex(slow, core, 1)
	for i := 0; i < 4; i++ {
		p := b.AddProcessor(fmt.Sprintf("fast%d", i), 4)
		b.AddDuplex(p, fast, 4)
	}
	for i := 0; i < 4; i++ {
		p := b.AddProcessor(fmt.Sprintf("slow%d", i), 1)
		b.AddDuplex(p, slow, 1)
	}
	net, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("graph: %v   network: %v (MLS=%.2f)\n\n", g, net, net.MeanLinkSpeed())

	// What the contention-free literature would predict...
	ideal, err := edgesched.Classic().Schedule(g, net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classic model predicts      %8.2f (not network-feasible)\n", ideal.Makespan)

	// ...what its assignment actually costs under contention...
	replay, err := edgesched.ClassicReplay().Schedule(g, net)
	if err != nil {
		log.Fatal(err)
	}
	if err := edgesched.Verify(replay); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classic assignment replayed %8.2f (+%.0f%% over prediction)\n",
		replay.Makespan, 100*(replay.Makespan-ideal.Makespan)/ideal.Makespan)

	// ...and what the contention-aware schedulers achieve.
	for _, alg := range []edgesched.Algorithm{edgesched.BA(), edgesched.OIHSA(), edgesched.BBSA()} {
		s, err := alg.Schedule(g, net)
		if err != nil {
			log.Fatal(err)
		}
		if err := edgesched.Verify(s); err != nil {
			log.Fatalf("%s: %v", alg.Name(), err)
		}
		fmt.Printf("%-27s %8.2f\n", alg.Name(), s.Makespan)
	}

	// Fast processors should do most of the work under any sensible
	// schedule; show the utilization split for BBSA.
	s, err := edgesched.BBSA().Schedule(g, net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nBBSA processor utilization:")
	util := s.ProcUtilization()
	for i := range net.NumProcessors() {
		p := net.Processor(i)
		fmt.Printf("  %-6s %5.1f%%\n", net.Node(p).Name, 100*util[p])
	}

	// The same scenario at a larger random scale, to show the effect
	// is robust: heterogeneous random clusters per the paper's §6.
	inst := edgesched.GenerateInstance(edgesched.WorkloadParams{
		Processors: 16, CCR: 2, Heterogeneous: true, Seed: 7,
	})
	fmt.Printf("\nrandom heterogeneous instance: %v on %v\n", inst.Graph, inst.Net)
	for _, alg := range []edgesched.Algorithm{edgesched.BA(), edgesched.OIHSA(), edgesched.BBSA()} {
		s, err := alg.Schedule(inst.Graph, inst.Net)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s makespan = %10.2f\n", alg.Name(), s.Makespan)
	}
}
