// WAN scheduling: the paper's §6 scenario — a random wide-area network
// of switches, each hosting a handful of processors — scheduled with
// all three algorithms across a CCR sweep, printing an inline
// improvement table (a miniature Figure 1).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	edgesched "repro"
)

func main() {
	// The fixed default keeps the printed table reproducible run to
	// run; any other seed gives a different (but internally
	// consistent) WAN and graph population.
	seed := flag.Int64("seed", 2006, "seed for the network and the per-cell task graphs")
	flag.Parse()

	// Build one fixed WAN: ~48 processors across switches with U(4,16)
	// processors each, random trunks between switches.
	r := rand.New(rand.NewSource(*seed))
	net := edgesched.RandomCluster(r, edgesched.ClusterParams{
		Processors: 48,
		ProcSpeed:  edgesched.Uniform(1),
		LinkSpeed:  edgesched.Uniform(1),
	})
	fmt.Printf("network: %v\n\n", net)

	fmt.Printf("%-6s %14s %14s %14s %10s %10s\n",
		"CCR", "BA", "OIHSA", "BBSA", "OIHSA+%", "BBSA+%")
	for _, ccr := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		// Average over a few random task graphs per CCR.
		var mBA, mOI, mBB float64
		const reps = 3
		for rep := 0; rep < reps; rep++ {
			gr := rand.New(rand.NewSource(*seed + int64(100*ccr) + int64(rep)))
			g, err := edgesched.RandomLayered(gr, edgesched.LayeredParams{
				Tasks:    200,
				TaskCost: edgesched.CostDist{Lo: 1, Hi: 1000},
				EdgeCost: edgesched.CostDist{Lo: 1, Hi: 1000},
			}).ScaleToCCR(ccr)
			if err != nil {
				log.Fatal(err)
			}
			for _, run := range []struct {
				alg edgesched.Algorithm
				out *float64
			}{
				{edgesched.BA(), &mBA},
				{edgesched.OIHSA(), &mOI},
				{edgesched.BBSA(), &mBB},
			} {
				s, err := run.alg.Schedule(g, net)
				if err != nil {
					log.Fatal(err)
				}
				if err := edgesched.Verify(s); err != nil {
					log.Fatalf("%s: %v", run.alg.Name(), err)
				}
				*run.out += s.Makespan / reps
			}
		}
		fmt.Printf("%-6.1f %14.1f %14.1f %14.1f %9.1f%% %9.1f%%\n",
			ccr, mBA, mOI, mBB,
			100*(mBA-mOI)/mBA, 100*(mBA-mBB)/mBA)
	}
	fmt.Println("\n(improvements are vs BA; positive = shorter makespan)")
}
