package sched

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/network"
)

// Classic is the contention-free list scheduler of the idealized model
// the paper criticizes: processors are assumed fully connected and all
// communications proceed concurrently without contention, each taking
// c(e)/MLS time (zero within a processor). It serves as the "what the
// traditional literature would predict" baseline and as the assignment
// source for ClassicReplay.
type Classic struct{}

// NewClassic returns the contention-free baseline scheduler.
func NewClassic() *Classic { return &Classic{} }

// Name implements Algorithm.
func (c *Classic) Name() string { return "Classic" }

// Schedule implements Algorithm under the ideal model: each task, in
// bottom-level order, goes to the processor of earliest §4.1 estimated
// finish and starts at its estimated start. The returned schedule has
// Ideal set and no edge schedules; its makespan is the ideal-model
// prediction, not a network-feasible value.
func (c *Classic) Schedule(g *dag.Graph, net *network.Topology) (*Schedule, error) {
	s := statePool.Get().(*state)
	defer func() {
		if s.release() {
			statePool.Put(s)
		}
	}()
	s.reset(g, net, Options{})
	for _, tid := range priorityOrder(g, PriorityBottomLevel) {
		p, start := s.selectByEstimate(tid, true)
		if p < 0 {
			return nil, unplaceable(g, tid)
		}
		finish := start + g.Task(tid).Cost/net.Node(p).Speed
		s.setTask(tid, TaskPlacement{Task: tid, Proc: p, Start: start, Finish: finish})
		s.setProcFinish(p, finish)
	}
	out := s.result("Classic")
	out.Ideal = true
	return out, nil
}

// ClassicReplay runs Classic to obtain a task-to-processor assignment
// under the ideal model, then replays that assignment on the real
// network: every inter-processor edge is routed (BFS) and placed
// (basic insertion) under contention, and task times are recomputed.
// The gap between Classic's predicted makespan and ClassicReplay's
// actual makespan quantifies how wrong the ideal model is (ablation A4
// in DESIGN.md).
type ClassicReplay struct{}

// NewClassicReplay returns the replay scheduler.
func NewClassicReplay() *ClassicReplay { return &ClassicReplay{} }

// Name implements Algorithm.
func (c *ClassicReplay) Name() string { return "Classic+Replay" }

// Schedule implements Algorithm.
func (c *ClassicReplay) Schedule(g *dag.Graph, net *network.Topology) (*Schedule, error) {
	ideal, err := NewClassic().Schedule(g, net)
	if err != nil {
		return nil, err
	}
	return ReplayAssignment(g, net, ideal, "Classic+Replay")
}

// ReplayAssignment keeps the task-to-processor mapping of the given
// schedule but recomputes all times on the real network with BFS
// routing and basic insertion. Tasks are processed in the bottom-level
// priority order, so per-processor execution order may legitimately
// differ from the donor schedule when contention moves data arrivals.
func ReplayAssignment(g *dag.Graph, net *network.Topology, donor *Schedule, name string) (*Schedule, error) {
	assign := make([]network.NodeID, len(donor.Tasks))
	for i, tp := range donor.Tasks {
		assign[i] = tp.Proc
	}
	return ScheduleAssignment(g, net, assign, replayOptions, name)
}

// replayOptions are ReplayAssignment's edge-scheduling policies.
var replayOptions = Options{
	Routing: RoutingBFS, Insertion: InsertionBasic,
	EdgeOrder: EdgeOrderFIFO, ProcSelect: ProcSelectEstimate, Engine: EngineSlots,
}

// ScheduleAssignment schedules the graph with a fixed task-to-processor
// assignment (indexed by TaskID) under the given edge-scheduling
// policies, skipping processor selection entirely. It is the evaluation
// primitive of the replay baselines.
func ScheduleAssignment(g *dag.Graph, net *network.Topology, assign []network.NodeID, opts Options, name string) (*Schedule, error) {
	if len(assign) != g.NumTasks() {
		return nil, fmt.Errorf("sched: assignment covers %d tasks, graph has %d", len(assign), g.NumTasks())
	}
	for tid, p := range assign {
		if p < 0 || int(p) >= net.NumNodes() || net.Node(p).Kind != network.Processor {
			return nil, fmt.Errorf("sched: task %d assigned to invalid processor %d", tid, p)
		}
	}
	return oneShot(g, net, opts, name, assign)
}
