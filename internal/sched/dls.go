package sched

import (
	"math"

	"repro/internal/dag"
	"repro/internal/network"
)

// DLS is contention-aware Dynamic Level Scheduling (Sih & Lee, TPDS
// 1993, adapted to the edge-scheduling model): instead of a static
// task order, every step picks the (ready task, processor) pair with
// the maximal dynamic level
//
//	DL(n, P) = bl*(n) − max(EDA(n, P), t_f(P))
//
// where bl* is the computation-only bottom level normalized by the
// processor's speed and EDA estimates the earliest data arrival using
// the mean link speed. Edges are then scheduled under contention with
// the configured engine, like every other algorithm in this package.
type DLS struct {
	// Opts selects the edge-scheduling machinery (routing, insertion,
	// engine, ...); ProcSelect is ignored because DLS's pair selection
	// replaces it.
	Opts Options
}

// NewDLS returns a contention-aware DLS scheduler with OIHSA's edge
// machinery.
func NewDLS() *DLS {
	return &DLS{Opts: Options{
		Routing: RoutingDijkstra, Insertion: InsertionOptimal,
		EdgeOrder: EdgeOrderDescCost, Engine: EngineSlots,
	}}
}

// Name implements Algorithm.
func (d *DLS) Name() string { return "DLS" }

// Schedule implements Algorithm.
func (d *DLS) Schedule(g *dag.Graph, net *network.Topology) (*Schedule, error) {
	s, err := newState(g, net, d.Opts)
	if err != nil {
		return nil, err
	}
	// Static levels: computation-only bottom level (classic DLS uses
	// median execution times; with per-processor speeds we use raw
	// costs and divide by speed at selection time).
	bl, err := compBottomLevels(g)
	if err != nil {
		return nil, err
	}

	remainingPreds := make([]int, g.NumTasks())
	ready := map[dag.TaskID]bool{}
	for i := 0; i < g.NumTasks(); i++ {
		remainingPreds[i] = g.InDegree(dag.TaskID(i))
		if remainingPreds[i] == 0 {
			ready[dag.TaskID(i)] = true
		}
	}
	for scheduled := 0; scheduled < g.NumTasks(); scheduled++ {
		bestTask := dag.TaskID(-1)
		bestProc := network.NodeID(-1)
		bestDL := math.Inf(-1)
		// Deterministic iteration: ascending task IDs.
		for tid := dag.TaskID(0); int(tid) < g.NumTasks(); tid++ {
			if !ready[tid] {
				continue
			}
			for _, p := range net.Processors() {
				eda := s.procFinish[p]
				for _, eid := range g.Pred(tid) {
					e := g.Edge(eid)
					src := s.tasks[e.From]
					arr := src.Finish
					if src.Proc != p {
						arr += e.Cost / s.mls
					}
					if arr > eda {
						eda = arr
					}
				}
				dl := bl[tid]/net.Node(p).Speed - eda
				if dl > bestDL {
					bestDL = dl
					bestTask = tid
					bestProc = p
				}
			}
		}
		if _, err := s.placeTask(bestTask, bestProc); err != nil {
			return nil, err
		}
		delete(ready, bestTask)
		for _, eid := range g.Succ(bestTask) {
			to := g.Edge(eid).To
			remainingPreds[to]--
			if remainingPreds[to] == 0 {
				ready[to] = true
			}
		}
	}
	return s.result(d.Name()), nil
}

// compBottomLevels returns computation-only bottom levels (no
// communication costs) per task.
func compBottomLevels(g *dag.Graph) ([]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	bl := make([]float64, g.NumTasks())
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0.0
		for _, eid := range g.Succ(id) {
			if v := bl[g.Edge(eid).To]; v > best {
				best = v
			}
		}
		bl[id] = g.Task(id).Cost + best
	}
	return bl, nil
}

// CPOP is contention-aware Critical-Path-On-a-Processor (Topcuoglu et
// al., TPDS 2002, adapted): tasks on the critical path (maximal
// bl + tl) are all pinned to the single processor minimizing the
// path's total execution time; every other task picks its processor
// by the §4.1-style estimate. Edge scheduling runs under contention
// with the configured engine.
type CPOP struct {
	// Opts selects the edge-scheduling machinery; ProcSelect is
	// ignored (CPOP's placement rule replaces it).
	Opts Options
}

// NewCPOP returns a contention-aware CPOP scheduler with OIHSA's edge
// machinery.
func NewCPOP() *CPOP {
	return &CPOP{Opts: Options{
		Routing: RoutingDijkstra, Insertion: InsertionOptimal,
		EdgeOrder: EdgeOrderDescCost, Engine: EngineSlots,
	}}
}

// Name implements Algorithm.
func (c *CPOP) Name() string { return "CPOP" }

// Schedule implements Algorithm.
func (c *CPOP) Schedule(g *dag.Graph, net *network.Topology) (*Schedule, error) {
	s, err := newState(g, net, c.Opts)
	if err != nil {
		return nil, err
	}
	bl, err := g.BottomLevels()
	if err != nil {
		return nil, err
	}
	tl, err := g.TopLevels()
	if err != nil {
		return nil, err
	}
	// Critical path: tasks with bl + tl == max over graph (within a
	// tolerance for float noise).
	cpLen := 0.0
	for i := range bl {
		if v := bl[i] + tl[i]; v > cpLen {
			cpLen = v
		}
	}
	onCP := make([]bool, g.NumTasks())
	cpWork := 0.0
	for i := range bl {
		if bl[i]+tl[i] >= cpLen-1e-9 {
			onCP[i] = true
			cpWork += g.Task(dag.TaskID(i)).Cost
		}
	}
	// The critical-path processor: fastest processor (minimizes
	// cpWork / speed; ties by ID).
	cpProc := net.Processors()[0]
	for _, p := range net.Processors() {
		if net.Node(p).Speed > net.Node(cpProc).Speed {
			cpProc = p
		}
	}
	order, err := g.PriorityOrder()
	if err != nil {
		return nil, err
	}
	for _, tid := range order {
		var proc network.NodeID
		if onCP[tid] {
			proc = cpProc
		} else {
			proc = s.selectByEstimate(tid, true)
		}
		if _, err := s.placeTask(tid, proc); err != nil {
			return nil, err
		}
	}
	return s.result(c.Name()), nil
}
