// Package edgesched is a contention-aware task scheduling library for
// parallel and distributed systems, reproducing Han & Wang, "Edge
// Scheduling Algorithms in Parallel and Distributed Systems"
// (ICPP 2006).
//
// Unlike the classic model — fully connected processors with unlimited
// concurrent communication — this library schedules every
// communication (DAG edge) onto the links of an explicit network
// topology, honouring link exclusivity (or fractional bandwidth) and
// the link causality condition of cut-through routing. It provides:
//
//   - BA: the baseline Basic Algorithm (BFS minimal routing, basic
//     insertion on links).
//   - OIHSA: Optimal Insertion Hybrid Scheduling Algorithm — modified
//     Dijkstra routing over current link workload, costliest-edge-first
//     ordering, and optimal slot insertion that defers already-placed
//     communications within their causality slack.
//   - BBSA: Bandwidth Based Scheduling Algorithm — transfers share
//     link bandwidth fractionally, with downstream links forwarding
//     chunks no faster than they arrive.
//
// The package is a thin facade over the implementation packages:
// internal/dag (task graphs), internal/network (topologies and
// routing), internal/linksched (link timelines), internal/sched (the
// algorithms), internal/verify (schedule validation),
// internal/workload and internal/experiment (the paper's evaluation).
//
// # Quick start
//
//	b := edgesched.NewGraph()
//	x := b.AddTask("x", 10)
//	y := b.AddTask("y", 20)
//	b.AddEdge(x, y, 100)
//	g, err := b.Build() // checks the graph once; g is immutable
//	if err != nil { ... }
//
//	net := edgesched.Star(4, edgesched.Uniform(1), edgesched.Uniform(1))
//
//	s, err := edgesched.OIHSA().Schedule(g, net)
//	if err != nil { ... }
//	fmt.Println(s.Makespan)
//
// A Graph is checked once, when it is built, and never changes after:
// schedulers do not check it again, and concurrent schedules (an
// Engine's requests) share it without copying.
package edgesched

import (
	"io"

	"repro/internal/analysis"
	"repro/internal/dag"
	"repro/internal/experiment"
	"repro/internal/graphio"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/workload"
)

// Task graph types.
type (
	// Graph is a weighted directed acyclic task graph, immutable once
	// built.
	Graph = dag.Graph
	// GraphBuilder collects tasks and edges; Build checks them and
	// returns the Graph.
	GraphBuilder = dag.Builder
	// TaskID identifies a task within a Graph.
	TaskID = dag.TaskID
	// EdgeID identifies a communication edge within a Graph.
	EdgeID = dag.EdgeID
	// CostDist is a uniform integer cost distribution U(Lo, Hi).
	CostDist = dag.CostDist
)

// Network types.
type (
	// Topology is the network graph of processors, switches and links,
	// immutable once built.
	Topology = network.Topology
	// TopologyBuilder collects nodes and links; Build checks them and
	// returns the Topology.
	TopologyBuilder = network.Builder
	// NodeID identifies a network node.
	NodeID = network.NodeID
	// LinkID identifies a link or hyperedge.
	LinkID = network.LinkID
	// Route is the ordered list of links a communication traverses.
	Route = network.Route
	// SpeedFn supplies speeds to topology builders.
	SpeedFn = network.SpeedFn
	// ClusterParams parameterizes RandomCluster.
	ClusterParams = network.RandomClusterParams
	// LayeredParams parameterizes RandomLayered.
	LayeredParams = dag.RandomLayeredParams
)

// Scheduling types.
type (
	// Algorithm is the common scheduler interface.
	Algorithm = sched.Algorithm
	// Schedule is a complete scheduling result.
	Schedule = sched.Schedule
	// TaskPlacement is one task's scheduled execution.
	TaskPlacement = sched.TaskPlacement
	// EdgeSchedule is one edge's scheduled communication.
	EdgeSchedule = sched.EdgeSchedule
	// Options selects the policies of the unified list scheduler.
	Options = sched.Options
)

// Serving types.
type (
	// Engine is a long-lived, concurrency-safe scheduling engine
	// serving many DAGs against one shared topology.
	Engine = sched.Engine
	// EngineOptions configures an Engine.
	EngineOptions = sched.EngineOptions
	// EngineStats is a snapshot of an Engine's counters.
	EngineStats = sched.EngineStats
)

// NewEngine builds a scheduling engine serving the given policies
// against one immutable topology.
func NewEngine(net *Topology, opts EngineOptions) (*Engine, error) {
	return sched.NewEngine(net, opts)
}

// DiffSchedules reports the first difference between two schedules
// ("" when bit-identical); exact comparison, for determinism checks.
func DiffSchedules(a, b *Schedule) string { return sched.DiffSchedules(a, b) }

// NewGraph returns an empty task graph builder.
func NewGraph() *GraphBuilder { return new(dag.Builder) }

// NewTopology returns an empty network topology builder.
func NewTopology() *TopologyBuilder { return new(network.Builder) }

// BA returns the baseline Basic Algorithm.
func BA() Algorithm { return sched.NewBA() }

// BASinnen returns the strong-baseline Basic Algorithm variant with
// tentative contention-aware earliest-finish processor selection.
func BASinnen() Algorithm { return sched.NewBASinnen() }

// OIHSA returns the Optimal Insertion Hybrid Scheduling Algorithm.
func OIHSA() Algorithm { return sched.NewOIHSA() }

// BBSA returns the Bandwidth Based Scheduling Algorithm.
func BBSA() Algorithm { return sched.NewBBSA() }

// Classic returns the contention-free ideal-model list scheduler.
func Classic() Algorithm { return sched.NewClassic() }

// ClassicReplay returns the scheduler that replays the ideal-model
// assignment on the real network under contention.
func ClassicReplay() Algorithm { return sched.NewClassicReplay() }

// Custom returns a list scheduler with explicit policy options.
func Custom(name string, opts Options) Algorithm { return sched.NewCustom(name, opts) }

// Topology builders.
var (
	// Uniform returns a SpeedFn yielding a constant speed.
	Uniform = network.Uniform
	// UniformRange returns a SpeedFn drawing integer speeds uniformly.
	UniformRange = network.UniformRange
	// FullyConnected builds a complete processor graph.
	FullyConnected = network.FullyConnected
	// Ring builds a duplex processor ring.
	Ring = network.Ring
	// Line builds a duplex processor chain.
	Line = network.Line
	// Star builds processors around one switch.
	Star = network.Star
	// Bus builds processors sharing one hyperedge.
	Bus = network.Bus
	// Mesh2D builds a processor mesh.
	Mesh2D = network.Mesh2D
	// Torus2D builds a processor torus.
	Torus2D = network.Torus2D
	// Hypercube builds a processor hypercube.
	Hypercube = network.Hypercube
	// FatTree builds a two-level switch tree.
	FatTree = network.FatTree
	// RandomCluster builds the paper's random switched WAN.
	RandomCluster = network.RandomCluster
	// Torus3D builds a 3-D processor torus.
	Torus3D = network.Torus3D
	// SwitchTree builds a k-ary multilevel switch tree.
	SwitchTree = network.SwitchTree
	// Dumbbell builds two clusters joined by a single trunk.
	Dumbbell = network.Dumbbell
	// Dragonfly builds a simplified dragonfly network.
	Dragonfly = network.Dragonfly
	// ButterflyNet builds a k-stage butterfly indirect network.
	ButterflyNet = network.ButterflyNet
)

// Graph generators.
var (
	// RandomLayered builds a random layered DAG.
	RandomLayered = dag.RandomLayered
	// Chain builds a linear task chain.
	Chain = dag.Chain
	// ForkJoin builds a fork-join graph.
	ForkJoin = dag.ForkJoin
	// Diamond builds the 4-task diamond.
	Diamond = dag.Diamond
	// InTree builds a reduction tree.
	InTree = dag.InTree
	// OutTree builds a fan-out tree.
	OutTree = dag.OutTree
	// FFT builds a radix-2 FFT butterfly graph.
	FFT = dag.FFT
	// GaussianElimination builds a Gaussian-elimination graph.
	GaussianElimination = dag.GaussianElimination
	// Laplace builds a 2-D wavefront graph.
	Laplace = dag.Laplace
	// Stencil builds a layered 1-D stencil graph.
	Stencil = dag.Stencil
	// LU builds a tiled LU-decomposition graph.
	LU = dag.LU
	// Cholesky builds a tiled Cholesky-factorization graph.
	Cholesky = dag.Cholesky
	// DivideConquer builds a split/compute/merge recursion graph.
	DivideConquer = dag.DivideConquer
	// MapReduce builds an all-to-all shuffle graph.
	MapReduce = dag.MapReduce
	// RandomSeriesParallel builds a random series-parallel workflow.
	RandomSeriesParallel = dag.RandomSeriesParallel
	// Montage builds a Montage-style astronomy workflow.
	Montage = dag.Montage
	// Epigenomics builds an Epigenomics-style pipeline workflow.
	Epigenomics = dag.Epigenomics
)

// Verify checks every invariant of the edge-scheduling model against
// the schedule and returns nil if it is valid.
func Verify(s *Schedule) error { return verify.Verify(s).Err() }

// AnalysisReport is the quantitative diagnosis of a schedule: speedup,
// lower bounds, utilizations, contention delays, and the critical
// chain pinning the makespan.
type AnalysisReport = analysis.Report

// Analyze computes the full analysis report for a schedule.
func Analyze(s *Schedule) *AnalysisReport { return analysis.Analyze(s) }

// WriteAnalysis renders an analysis report as readable text.
func WriteAnalysis(w io.Writer, r *AnalysisReport) error { return analysis.WriteReport(w, r) }

// WriteHTMLReport renders a self-contained HTML report of the
// schedule: headline metrics, inline SVG Gantt, utilizations, and the
// critical-chain analysis.
func WriteHTMLReport(w io.Writer, s *Schedule) error { return trace.WriteHTMLReport(w, s) }

// WriteGantt renders the schedule as a text Gantt chart. With links
// set, per-link occupation rows are included.
func WriteGantt(w io.Writer, s *Schedule, width int, links bool) error {
	return trace.WriteGantt(w, s, trace.GanttOptions{Width: width, Links: links})
}

// WriteGanttSVG renders the schedule as a self-contained SVG Gantt
// chart; with links set, per-link occupation rows are included.
func WriteGanttSVG(w io.Writer, s *Schedule, width int, links bool) error {
	return trace.WriteGanttSVG(w, s, trace.SVGOptions{Width: width, Links: links})
}

// WriteScheduleJSON dumps the schedule as indented JSON.
func WriteScheduleJSON(w io.Writer, s *Schedule) error { return trace.WriteScheduleJSON(w, s) }

// WriteScheduleCSV dumps the schedule's events as CSV.
func WriteScheduleCSV(w io.Writer, s *Schedule) error { return trace.WriteScheduleCSV(w, s) }

// WriteDAGDOT renders a task graph in Graphviz DOT.
func WriteDAGDOT(w io.Writer, g *Graph) error { return trace.WriteDAGDOT(w, g) }

// WriteTopologyDOT renders a topology in Graphviz DOT.
func WriteTopologyDOT(w io.Writer, t *Topology) error { return trace.WriteTopologyDOT(w, t) }

// Experiment facade.
type (
	// ExperimentConfig controls a figure or ablation sweep.
	ExperimentConfig = experiment.Config
	// Sweep is a completed figure.
	Sweep = experiment.Sweep
	// WorkloadParams describes one §6 instance.
	WorkloadParams = workload.Params
	// Instance is one generated problem.
	Instance = workload.Instance
)

// Figure regenerates one of the paper's figures (1–4).
func Figure(n int, cfg ExperimentConfig) (*Sweep, error) { return experiment.Figure(n, cfg) }

// PaperConfig returns the full-scale §6 sweep configuration.
func PaperConfig(heterogeneous bool) ExperimentConfig {
	return experiment.PaperConfig(heterogeneous)
}

// GenerateInstance builds one reproducible §6 problem instance.
func GenerateInstance(p WorkloadParams) Instance { return workload.Generate(p) }

// ScheduleAssignment schedules the graph with a fixed task-to-processor
// assignment under the given policies.
func ScheduleAssignment(g *Graph, net *Topology, assign []NodeID, opts Options, name string) (*Schedule, error) {
	return sched.ScheduleAssignment(g, net, assign, opts, name)
}

// Graph and topology persistence (JSON).
var (
	// WriteGraphJSON serializes a task graph as JSON.
	WriteGraphJSON = graphio.WriteGraph
	// ReadGraphJSON parses a task graph from JSON and builds it.
	ReadGraphJSON = graphio.ReadGraph
	// WriteTopologyJSON serializes a topology as JSON.
	WriteTopologyJSON = graphio.WriteTopology
	// ReadTopologyJSON parses and validates a topology from JSON.
	ReadTopologyJSON = graphio.ReadTopology
)
