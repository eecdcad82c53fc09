// Package sched implements the contention-aware list-scheduling
// algorithms of Han & Wang (ICPP 2006) — OIHSA and BBSA — together with
// their baseline, Sinnen & Sousa's Basic Algorithm (BA), and a classic
// contention-free list scheduler. All algorithms share one list
// scheduling framework whose policies (routing, insertion, edge order,
// processor selection, transfer engine) are selectable, which also
// powers the ablation experiments.
package sched

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/linksched"
	"repro/internal/network"
)

// TaskPlacement is the scheduled execution of one task.
type TaskPlacement struct {
	Task   dag.TaskID
	Proc   network.NodeID
	Start  float64
	Finish float64
}

// EdgePlacement is the scheduled occupation of one route link by one
// edge. For the exclusive-slot engine the occupation is the single
// interval [Start, Finish]; for the bandwidth engine it is the Chunks,
// with Start/Finish the envelope.
type EdgePlacement struct {
	Link   network.LinkID
	Start  float64
	Finish float64
	Chunks []linksched.Chunk // bandwidth engine only
}

// EdgeSchedule is the scheduled communication of one DAG edge across
// the network. Intra-processor edges have no EdgeSchedule (their
// communication cost is zero by the model).
type EdgeSchedule struct {
	Edge       dag.EdgeID
	SrcProc    network.NodeID
	DstProc    network.NodeID
	Route      network.Route
	Placements []EdgePlacement // one per route link, in route order
	Arrival    float64         // time the data is available at DstProc
	// Base is the earliest time the communication was allowed to enter
	// the network (the destination task's ready time under the paper's
	// model). Arrival − Base − uncontended transfer time is the delay
	// attributable to contention and routing.
	Base float64
}

// Schedule is the complete result of a scheduling run.
type Schedule struct {
	Algorithm string
	Graph     *dag.Graph
	Net       *network.Topology
	// Tasks is indexed by TaskID.
	Tasks []TaskPlacement
	// Edges is indexed by EdgeID; nil entries are intra-processor
	// communications (or ideal-model schedules that do not route).
	Edges []*EdgeSchedule
	// Makespan is the maximum task finish time.
	Makespan float64
	// Ideal marks schedules produced under the classic contention-free
	// model; their Edges are nil and link feasibility is not claimed.
	Ideal bool
	// HopDelay is the per-hop switching delay the schedule was built
	// with (0 unless the extension was enabled); the verifier uses it
	// when checking link causality.
	HopDelay float64
	// Switching records the switching technique the schedule was built
	// with; the verifier checks the matching causality rule.
	Switching Switching
	// Duplicates lists re-executions of predecessor-free tasks placed
	// by the Duplication extension: a cross-processor edge without a
	// network schedule is legal when a duplicate of its source task
	// finishes on the destination processor before the consumer starts.
	Duplicates []TaskPlacement
}

// ArrivalOf returns the time the data of edge e becomes available at
// its destination processor: the edge schedule's arrival, or the source
// task's finish time for intra-processor edges.
func (s *Schedule) ArrivalOf(e dag.EdgeID) float64 {
	if es := s.Edges[e]; es != nil {
		return es.Arrival
	}
	return s.Tasks[s.Graph.Edge(e).From].Finish
}

// ProcUtilization returns the fraction of [0, makespan] each node spent
// computing, indexed by NodeID: 0 for nodes that are not processors,
// and for every node when the makespan is 0.
func (s *Schedule) ProcUtilization() []float64 {
	busy := make([]float64, s.Net.NumNodes())
	for _, tps := range [][]TaskPlacement{s.Tasks, s.Duplicates} {
		for _, tp := range tps {
			busy[tp.Proc] += tp.Finish - tp.Start
		}
	}
	util := make([]float64, len(busy))
	if s.Makespan > 0 {
		for i := range s.Net.NumProcessors() {
			p := s.Net.Processor(i)
			util[p] = busy[p] / s.Makespan
		}
	}
	return util
}

// CommStats summarizes the communication side of a schedule.
type CommStats struct {
	RoutedEdges int     // edges that crossed the network
	LocalEdges  int     // intra-processor edges
	TotalHops   int     // sum of route lengths
	MeanHops    float64 // TotalHops / RoutedEdges
	MaxArrival  float64 // latest data arrival
}

// CommStats computes communication statistics.
func (s *Schedule) CommStats() CommStats {
	var cs CommStats
	for _, es := range s.Edges {
		if es == nil {
			cs.LocalEdges++
			continue
		}
		cs.RoutedEdges++
		cs.TotalHops += len(es.Route)
		if es.Arrival > cs.MaxArrival {
			cs.MaxArrival = es.Arrival
		}
	}
	if s.Graph != nil {
		cs.LocalEdges = s.Graph.NumEdges() - cs.RoutedEdges
	}
	if cs.RoutedEdges > 0 {
		cs.MeanHops = float64(cs.TotalHops) / float64(cs.RoutedEdges)
	}
	return cs
}

// String returns a one-line summary.
func (s *Schedule) String() string {
	return fmt.Sprintf("%s: makespan=%.3f tasks=%d", s.Algorithm, s.Makespan, len(s.Tasks))
}

// Algorithm is the common interface of all schedulers in this package.
type Algorithm interface {
	// Name returns the algorithm's display name.
	Name() string
	// Schedule maps every task of g onto a processor of net and every
	// inter-processor edge onto a route of links, returning the
	// complete schedule.
	Schedule(g *dag.Graph, net *network.Topology) (*Schedule, error)
}

// makespan computes the maximum task finish.
func makespan(tasks []TaskPlacement) float64 {
	m := 0.0
	for _, t := range tasks {
		if t.Finish > m {
			m = t.Finish
		}
	}
	return m
}
