package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/dag"
	"repro/internal/graphio"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/workload"
)

// runDAG generates one task graph and prints its statistics, Graphviz
// DOT or JSON.
func runDAG(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("edgesim dag", flag.ContinueOnError)
	var (
		kind     = fs.String("kind", "random", "graph kind: random, chain, forkjoin, diamond, intree, outtree, fft, gauss, laplace, stencil, lu, cholesky, divconq, mapreduce, sp, montage, epigenomics")
		tasks    = fs.Int("tasks", 50, "tasks for random graphs")
		size     = fs.Int("size", 4, "size parameter: chain length, fork width, tree depth, fft log2 points, matrix n, grid n")
		degree   = fs.Int("degree", 2, "tree degree")
		taskCost = fs.Float64("task-cost", 10, "task cost for regular graphs")
		edgeCost = fs.Float64("edge-cost", 10, "edge cost for regular graphs")
		ccr      = fs.Float64("ccr", 0, "rescale edge costs to this CCR (0 = keep)")
		seed     = fs.Int64("seed", 1, "random seed")
		dot      = fs.Bool("dot", false, "emit Graphviz DOT instead of statistics")
		asJSON   = fs.Bool("json", false, "emit the graph as JSON (loadable by edgesim schedule -dag)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	// A generator panics on a cost a graph does not admit (above 1e300);
	// none scales a cost by more than 2.
	for _, f := range []struct {
		name string
		v    float64
	}{{"task-cost", *taskCost}, {"edge-cost", *edgeCost}} {
		if !(f.v >= 0 && f.v <= 1e290) {
			return fmt.Errorf("-%s %g is outside [0, 1e290]", f.name, f.v)
		}
	}

	r := rand.New(rand.NewSource(*seed))
	var g *dag.Graph
	switch strings.ToLower(*kind) {
	case "random":
		g = dag.RandomLayered(r, dag.RandomLayeredParams{
			Tasks:    *tasks,
			TaskCost: dag.CostDist{Lo: 1, Hi: 1000},
			EdgeCost: dag.CostDist{Lo: 1, Hi: 1000},
		})
	case "chain":
		g = dag.Chain(*size, *taskCost, *edgeCost)
	case "forkjoin":
		g = dag.ForkJoin(*size, *taskCost, *edgeCost)
	case "diamond":
		g = dag.Diamond(*taskCost, *edgeCost)
	case "intree":
		g = dag.InTree(*degree, *size, *taskCost, *edgeCost)
	case "outtree":
		g = dag.OutTree(*degree, *size, *taskCost, *edgeCost)
	case "fft":
		g = dag.FFT(*size, *taskCost, *edgeCost)
	case "gauss":
		g = dag.GaussianElimination(*size, *taskCost, *edgeCost)
	case "laplace":
		g = dag.Laplace(*size, *taskCost, *edgeCost)
	case "stencil":
		g = dag.Stencil(*size, *size, *taskCost, *edgeCost)
	case "lu":
		g = dag.LU(*size, *taskCost, *edgeCost)
	case "cholesky":
		g = dag.Cholesky(*size, *taskCost, *edgeCost)
	case "divconq":
		g = dag.DivideConquer(*size, *taskCost, *taskCost, *taskCost, *edgeCost)
	case "mapreduce":
		g = dag.MapReduce(*size, (*size+1)/2, *taskCost, *taskCost, *edgeCost)
	case "montage":
		g = dag.Montage(*size, *taskCost, *edgeCost)
	case "epigenomics":
		g = dag.Epigenomics(*size, *size, *taskCost, *edgeCost)
	case "sp":
		g = dag.RandomSeriesParallel(r, *size,
			dag.CostDist{Lo: 1, Hi: 1000}, dag.CostDist{Lo: 1, Hi: 1000})
	default:
		return fmt.Errorf("unknown graph kind %q", *kind)
	}
	if *ccr > 0 {
		var err error
		if g, err = g.ScaleToCCR(*ccr); err != nil {
			return err
		}
	}
	if *dot {
		return trace.WriteDAGDOT(w, g)
	}
	if *asJSON {
		return graphio.WriteGraph(w, g)
	}
	fmt.Fprintf(w, "%s graph: %v\n", *kind, g)
	fmt.Fprintf(w, "sources=%d sinks=%d\n", len(g.Sources()), len(g.Sinks()))
	fmt.Fprintf(w, "total computation=%.4g total communication=%.4g\n", g.TotalTaskCost(), g.TotalEdgeCost())
	fmt.Fprintf(w, "critical path (incl. communication)=%.4g\n", g.CriticalPathLength())
	order, err := g.PriorityOrder()
	if err != nil {
		return err
	}
	n := min(len(order), 10)
	fmt.Fprintf(w, "first %d tasks by priority: %v\n", n, order[:n])
	return nil
}

// runNet generates one topology and prints its statistics, Graphviz
// DOT or JSON.
func runNet(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("edgesim net", flag.ContinueOnError)
	var (
		kind   = fs.String("kind", "cluster", "topology: cluster, fully, ring, line, star, bus, mesh, torus, hypercube, fattree, torus3d, tree, dumbbell, dragonfly, butterfly")
		procs  = fs.Int("procs", 16, "number of processors")
		rows   = fs.Int("rows", 4, "mesh/torus rows")
		cols   = fs.Int("cols", 4, "mesh/torus columns")
		dim    = fs.Int("dim", 3, "hypercube dimension")
		hetero = fs.Bool("hetero", false, "heterogeneous speeds U(1,10)")
		seed   = fs.Int64("seed", 1, "random seed")
		dot    = fs.Bool("dot", false, "emit Graphviz DOT instead of statistics")
		asJSON = fs.Bool("json", false, "emit the topology as JSON (loadable by edgesim schedule -net)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"procs", *procs}, {"rows", *rows}, {"cols", *cols}, {"dim", *dim}} {
		if f.v <= 0 {
			return fmt.Errorf("-%s %d is not positive", f.name, f.v)
		}
	}
	// 2^dim processors or leaves: past 20 the IDs or the memory run out.
	if k := strings.ToLower(*kind); (k == "hypercube" || k == "tree" || k == "butterfly") && *dim > 20 {
		return fmt.Errorf("-dim %d is over 20 for -kind %s", *dim, k)
	}

	r := rand.New(rand.NewSource(*seed))
	proc := network.Uniform(1)
	link := network.Uniform(1)
	if *hetero {
		proc = network.UniformRange(r, 1, 10)
		link = network.UniformRange(r, 1, 10)
	}
	var t *network.Topology
	switch strings.ToLower(*kind) {
	case "cluster":
		t = network.RandomCluster(r, network.RandomClusterParams{
			Processors: *procs, ProcSpeed: proc, LinkSpeed: link})
	case "fully":
		t = network.FullyConnected(*procs, proc, link)
	case "ring":
		t = network.Ring(*procs, proc, link)
	case "line":
		t = network.Line(*procs, proc, link)
	case "star":
		t = network.Star(*procs, proc, link)
	case "bus":
		t = network.Bus(*procs, proc, 1)
	case "mesh":
		t = network.Mesh2D(*rows, *cols, proc, link)
	case "torus":
		t = network.Torus2D(*rows, *cols, proc, link)
	case "hypercube":
		t = network.Hypercube(*dim, proc, link)
	case "fattree":
		t = network.FatTree(4, (*procs+3)/4, proc, link)
	case "torus3d":
		t = network.Torus3D(*rows, *cols, *dim, proc, link)
	case "tree":
		t = network.SwitchTree(2, *dim, (*procs+3)/4, proc, link)
	case "dumbbell":
		t = network.Dumbbell(*procs/2, *procs-*procs/2, proc, link, 1)
	case "dragonfly":
		t = network.Dragonfly(*dim, (*procs+*dim-1)/(*dim), proc, link, link)
	case "butterfly":
		t = network.ButterflyNet(*dim, proc, link)
	default:
		return fmt.Errorf("unknown topology kind %q", *kind)
	}
	if *dot {
		return trace.WriteTopologyDOT(w, t)
	}
	if *asJSON {
		return graphio.WriteTopology(w, t)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "mean link speed (MLS) = %.4g\n", t.MeanLinkSpeed())
	// Route-length statistics between the first few processor pairs.
	router := t.NewRouter(nil)
	var totalHops, pairs int
	for i := 0; i < t.NumProcessors() && i < 8; i++ {
		for j := 0; j < t.NumProcessors() && j < 8; j++ {
			if i == j {
				continue
			}
			route, err := router.BFSRoute(t.Processor(i), t.Processor(j))
			if err != nil {
				return err
			}
			totalHops += len(route)
			pairs++
		}
	}
	if pairs > 0 {
		fmt.Fprintf(w, "mean BFS route length over %d sampled pairs = %.2f links\n",
			pairs, float64(totalHops)/float64(pairs))
	}
	return nil
}

// runSchedule schedules one workload instance with a chosen algorithm
// and prints the result: summary, text Gantt chart (with per-link
// rows), analysis, or a JSON/CSV/SVG/HTML dump.
func runSchedule(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("edgesim schedule", flag.ContinueOnError)
	var (
		algo    = fs.String("algo", "oihsa", "algorithm, any case: "+strings.Join(sched.AlgorithmNames(), ", "))
		procs   = fs.Int("procs", 8, "number of processors")
		ccr     = fs.Float64("ccr", 1.0, "communication-computation ratio")
		tasks   = fs.Int("tasks", 50, "number of tasks")
		hetero  = fs.Bool("hetero", false, "heterogeneous speeds U(1,10)")
		seed    = fs.Int64("seed", 1, "random seed")
		gantt   = fs.Bool("gantt", true, "print the Gantt chart")
		links   = fs.Bool("links", false, "include per-link rows in the Gantt chart")
		width   = fs.Int("width", 100, "Gantt chart width in cells")
		asJSON  = fs.Bool("json", false, "dump the schedule as JSON")
		asCSV   = fs.Bool("csv", false, "dump the schedule events as CSV")
		analyze = fs.Bool("analyze", false, "print the schedule analysis (speedup, bounds, critical chain)")
		svg     = fs.Bool("svg", false, "emit the schedule as an SVG Gantt chart")
		html    = fs.Bool("html", false, "emit a self-contained HTML report (Gantt + analysis)")
		events  = fs.Int("events", 0, "print the first N chronological events (0 = off)")
		dagFile = fs.String("dag", "", "load the task graph from a JSON file (see edgesim dag -json) instead of generating one")
		netFile = fs.String("net", "", "load the topology from a JSON file (see edgesim net -json) instead of generating one")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	a, err := sched.ByName(*algo)
	if err != nil {
		return err
	}
	if *ccr > workload.MaxCCR {
		return fmt.Errorf("-ccr %g is above %g", *ccr, workload.MaxCCR)
	}

	inst := workload.Generate(workload.Params{
		Processors:    *procs,
		CCR:           *ccr,
		Heterogeneous: *hetero,
		MinTasks:      *tasks,
		MaxTasks:      *tasks,
		Seed:          *seed,
	})
	if *dagFile != "" {
		if inst.Graph, err = readFile(*dagFile, graphio.ReadGraph); err != nil {
			return err
		}
	}
	if *netFile != "" {
		if inst.Net, err = readFile(*netFile, graphio.ReadTopology); err != nil {
			return err
		}
	}
	s, err := a.Schedule(inst.Graph, inst.Net)
	if err != nil {
		return err
	}
	if res := verify.Verify(s); !res.OK() {
		return fmt.Errorf("schedule failed verification: %v", res.Err())
	}

	switch {
	case *html:
		return trace.WriteHTMLReport(w, s)
	case *svg:
		return trace.WriteGanttSVG(w, s, trace.SVGOptions{Links: *links})
	case *asJSON:
		return trace.WriteScheduleJSON(w, s)
	case *asCSV:
		return trace.WriteScheduleCSV(w, s)
	}
	cs := s.CommStats()
	fmt.Fprintf(w, "%s on %s: tasks=%d edges=%d (%d routed, mean %.1f hops)\n",
		s.Algorithm, inst.Net, inst.Graph.NumTasks(), inst.Graph.NumEdges(),
		cs.RoutedEdges, cs.MeanHops)
	fmt.Fprintf(w, "makespan = %.2f (verified)\n", s.Makespan)
	if *gantt {
		if err := trace.WriteGantt(w, s, trace.GanttOptions{Width: *width, Links: *links}); err != nil {
			return err
		}
	}
	if *analyze {
		if err := analysis.WriteReport(w, analysis.Analyze(s)); err != nil {
			return err
		}
	}
	if *events > 0 {
		return trace.WriteEventLog(w, s, *events)
	}
	return nil
}

// readFile decodes one JSON input file with read.
func readFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return read(f)
}
