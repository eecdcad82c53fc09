// Package dag implements weighted directed acyclic task graphs for
// static scheduling: tasks carry computation costs, edges carry
// communication costs, and the package provides the structural queries
// (predecessors, successors, topological order, bottom levels, CCR)
// that list-scheduling algorithms need.
package dag

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// TaskID identifies a task within a Graph. IDs are dense indices
// assigned in insertion order, starting at 0.
type TaskID int

// EdgeID identifies an edge within a Graph. IDs are dense indices
// assigned in insertion order, starting at 0.
type EdgeID int

// Task is a node of the task graph.
type Task struct {
	ID   TaskID
	Name string
	// Cost is the computation cost w(n). On a processor with speed s
	// the execution time is Cost/s.
	Cost float64
}

// Edge is a communication dependency between two tasks.
type Edge struct {
	ID   EdgeID
	From TaskID
	To   TaskID
	// Cost is the communication cost c(e). On a link with speed s the
	// transfer time is Cost/s.
	Cost float64
}

// Graph is a directed acyclic task graph G = (V, E, w, c).
//
// The zero value is an empty graph ready for use. Graphs are built with
// AddTask and AddEdge and are not safe for concurrent mutation. Once a
// schedule run starts the graph is treated as frozen: concurrent
// Schedule requests may share it without copying.
type Graph struct {
	tasks []Task
	edges []Edge
	succ  [][]EdgeID // outgoing edge IDs per task
	pred  [][]EdgeID // incoming edge IDs per task
}

// New returns an empty task graph.
func New() *Graph { return &Graph{} }

// AddTask appends a task with the given name and computation cost and
// returns its ID.
func (g *Graph) AddTask(name string, cost float64) TaskID {
	id := TaskID(len(g.tasks))
	if name == "" {
		name = fmt.Sprintf("n%d", id)
	}
	g.tasks = append(g.tasks, Task{ID: id, Name: name, Cost: cost})
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return id
}

// AddEdge adds a communication edge from one task to another and
// returns its ID. It panics if either endpoint does not exist or if
// from == to; acyclicity is checked by Validate, not here.
func (g *Graph) AddEdge(from, to TaskID, cost float64) EdgeID {
	if !g.hasTask(from) || !g.hasTask(to) {
		panic(fmt.Sprintf("dag: AddEdge(%d, %d): task does not exist", from, to))
	}
	if from == to {
		panic(fmt.Sprintf("dag: AddEdge: self-loop on task %d", from))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Cost: cost})
	g.succ[from] = append(g.succ[from], id)
	g.pred[to] = append(g.pred[to], id)
	return id
}

func (g *Graph) hasTask(id TaskID) bool { return id >= 0 && int(id) < len(g.tasks) }

// NumTasks reports the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges reports the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Task returns the task with the given ID.
func (g *Graph) Task(id TaskID) Task { return g.tasks[id] }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Tasks returns all tasks in ID order. The slice is shared; do not modify.
func (g *Graph) Tasks() []Task { return g.tasks }

// Edges returns all edges in ID order. The slice is shared; do not modify.
func (g *Graph) Edges() []Edge { return g.edges }

// Succ returns the IDs of the edges leaving task id. Shared; do not modify.
func (g *Graph) Succ(id TaskID) []EdgeID { return g.succ[id] }

// Pred returns the IDs of the edges entering task id. Shared; do not modify.
func (g *Graph) Pred(id TaskID) []EdgeID { return g.pred[id] }

// InDegree reports the number of incoming edges of task id.
func (g *Graph) InDegree(id TaskID) int { return len(g.pred[id]) }

// OutDegree reports the number of outgoing edges of task id.
func (g *Graph) OutDegree(id TaskID) int { return len(g.succ[id]) }

// Sources returns the tasks without predecessors, in ID order.
func (g *Graph) Sources() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if len(g.pred[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Sinks returns the tasks without successors, in ID order.
func (g *Graph) Sinks() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if len(g.succ[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// SetTaskCost replaces the computation cost of task id.
func (g *Graph) SetTaskCost(id TaskID, cost float64) { g.tasks[id].Cost = cost }

// SetEdgeCost replaces the communication cost of edge id.
func (g *Graph) SetEdgeCost(id EdgeID, cost float64) { g.edges[id].Cost = cost }

// ErrCycle is reported by Validate and TopoOrder when the graph
// contains a directed cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// Validate checks structural invariants: the graph must be acyclic and
// all costs must be non-negative and finite. Multiple edges between the
// same pair of tasks are rejected too, since an edge models the single
// data transfer between two tasks.
func (g *Graph) Validate() error {
	for _, t := range g.tasks {
		if t.Cost < 0 || math.IsNaN(t.Cost) || t.Cost > 1e300 {
			return fmt.Errorf("dag: task %d (%s) has invalid cost %v", t.ID, t.Name, t.Cost)
		}
	}
	// dup marks an edge with the endpoints of a lower-numbered one.
	// Each succ list is in edge order, and mark[to] holds from+1 once
	// from has an edge to to.
	dup := make([]bool, len(g.edges))
	mark := make([]TaskID, len(g.tasks))
	for from, out := range g.succ {
		for _, eid := range out {
			to := g.edges[eid].To
			dup[eid] = mark[to] == TaskID(from)+1
			mark[to] = TaskID(from) + 1
		}
	}
	for _, e := range g.edges {
		if e.Cost < 0 || math.IsNaN(e.Cost) || e.Cost > 1e300 {
			return fmt.Errorf("dag: edge %d (%d->%d) has invalid cost %v", e.ID, e.From, e.To, e.Cost)
		}
		if dup[e.ID] {
			return fmt.Errorf("dag: duplicate edge %d->%d", e.From, e.To)
		}
	}
	if !g.acyclic() {
		return ErrCycle
	}
	return nil
}

// acyclic reports whether Kahn's algorithm drains every task: any
// order of the ready tasks does, on an acyclic graph, so a plain stack
// serves where TopoOrder keeps a heap for its deterministic order.
func (g *Graph) acyclic() bool {
	indeg := make([]int, len(g.tasks))
	ready := make([]TaskID, 0, len(g.tasks))
	for i := range g.tasks {
		if indeg[i] = len(g.pred[i]); indeg[i] == 0 {
			ready = append(ready, TaskID(i))
		}
	}
	drained := 0
	for len(ready) > 0 {
		id := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		drained++
		for _, eid := range g.succ[id] {
			to := g.edges[eid].To
			if indeg[to]--; indeg[to] == 0 {
				ready = append(ready, to)
			}
		}
	}
	return drained == len(g.tasks)
}

// TopoOrder returns the task IDs in a topological order (Kahn's
// algorithm, smallest-ID-first among ready tasks so the order is
// deterministic). It returns ErrCycle if the graph is cyclic.
func (g *Graph) TopoOrder() ([]TaskID, error) {
	n := len(g.tasks)
	indeg := make([]int, n)
	for i := range g.tasks {
		indeg[i] = len(g.pred[i])
	}
	// Min-heap over ready task IDs for deterministic output.
	ready := &taskIDHeap{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for ready.len() > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, eid := range g.succ[id] {
			to := g.edges[eid].To
			indeg[to]--
			if indeg[to] == 0 {
				ready.push(to)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// taskIDHeap is a tiny binary min-heap of TaskIDs.
type taskIDHeap struct{ a []TaskID }

func (h *taskIDHeap) len() int { return len(h.a) }

func (h *taskIDHeap) push(x TaskID) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *taskIDHeap) pop() TaskID {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && h.a[l] < h.a[s] {
			s = l
		}
		if r < last && h.a[r] < h.a[s] {
			s = r
		}
		if s == i {
			break
		}
		h.a[i], h.a[s] = h.a[s], h.a[i]
		i = s
	}
	return top
}

// BottomLevels computes bl(n) = w(n) + max over successors of
// (c(e) + bl(succ)) for every task (paper §2.1). The result is indexed
// by TaskID. It returns ErrCycle for cyclic graphs.
func (g *Graph) BottomLevels() ([]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return g.bottomLevels(order, true), nil
}

// bottomLevels computes the bottom levels over a topological order,
// with the edge costs when comm is set and without them otherwise.
func (g *Graph) bottomLevels(order []TaskID, comm bool) []float64 {
	bl := make([]float64, len(g.tasks))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0.0
		for _, eid := range g.succ[id] {
			e := g.edges[eid]
			v := bl[e.To]
			if comm {
				v = e.Cost + bl[e.To]
			}
			if v > best {
				best = v
			}
		}
		bl[id] = g.tasks[id].Cost + best
	}
	return bl
}

// TopLevels computes tl(n) = max over predecessors of
// (tl(pred) + w(pred) + c(e)), the length of the longest path entering
// the task excluding the task itself.
func (g *Graph) TopLevels() ([]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return g.topLevels(order), nil
}

// topLevels computes the top levels over a topological order.
func (g *Graph) topLevels(order []TaskID) []float64 {
	tl := make([]float64, len(g.tasks))
	for _, id := range order {
		best := 0.0
		for _, eid := range g.pred[id] {
			e := g.edges[eid]
			if v := tl[e.From] + g.tasks[e.From].Cost + e.Cost; v > best {
				best = v
			}
		}
		tl[id] = best
	}
	return tl
}

// CriticalPathLength returns the length of the longest path through the
// graph counting both computation and communication costs, i.e. the
// maximum bottom level.
func (g *Graph) CriticalPathLength() (float64, error) {
	bl, err := g.BottomLevels()
	if err != nil {
		return 0, err
	}
	best := 0.0
	for _, v := range bl {
		if v > best {
			best = v
		}
	}
	return best, nil
}

// PriorityOrder returns the task IDs sorted by decreasing bottom level,
// breaking ties by topological rank and then by ID. With positive task
// costs this order is always a valid topological order (bl strictly
// decreases along edges); ties from zero-cost tasks are resolved by the
// topological rank so the property holds for all valid graphs.
func (g *Graph) PriorityOrder() ([]TaskID, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return g.orderByKeyDesc(order, g.bottomLevels(order, true)), nil
}

// orderByKeyDesc sorts the topological order in place by decreasing
// key, tie-broken by topological rank, and returns it. The rank is
// unique, so the order is total, and any key that is non-increasing
// along edges yields a valid topological order.
func (g *Graph) orderByKeyDesc(order []TaskID, key []float64) []TaskID {
	rank := make([]int, len(g.tasks))
	for i, id := range order {
		rank[id] = i
	}
	slices.SortFunc(order, func(a, b TaskID) int {
		if c := cmp.Compare(key[b], key[a]); c != 0 {
			return c
		}
		return cmp.Compare(rank[a], rank[b])
	})
	return order
}

// CompPriorityOrder returns the tasks sorted by decreasing
// computation-only bottom level (communication costs ignored).
func (g *Graph) CompPriorityOrder() ([]TaskID, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return g.orderByKeyDesc(order, g.bottomLevels(order, false)), nil
}

// CriticalityPriorityOrder returns the tasks sorted by decreasing
// bl + tl (path length through the task): critical-path tasks first,
// as CPOP-style rankings use. The key is not monotone along edges, so
// the tie-break machinery enforces a valid topological order by
// sorting on the longest-path-through value, which IS equal for all
// tasks of the critical path; the final order remains topological
// because orderByKeyDesc is stable on topological rank only for equal
// keys — therefore the key is clamped to be non-increasing along the
// topological order first.
func (g *Graph) CriticalityPriorityOrder() ([]TaskID, error) {
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	key := g.bottomLevels(topo, true)
	for i, t := range g.topLevels(topo) {
		key[i] += t
	}
	// Clamp: a task's key must not exceed any predecessor's key, so
	// that sorting by decreasing key is a topological order.
	for _, id := range topo {
		for _, eid := range g.pred[id] {
			if k := key[g.edges[eid].From]; k < key[id] {
				key[id] = k
			}
		}
	}
	return g.orderByKeyDesc(topo, key), nil
}

// TotalTaskCost returns the sum of all computation costs.
func (g *Graph) TotalTaskCost() float64 {
	sum := 0.0
	for _, t := range g.tasks {
		sum += t.Cost
	}
	return sum
}

// TotalEdgeCost returns the sum of all communication costs.
func (g *Graph) TotalEdgeCost() float64 {
	sum := 0.0
	for _, e := range g.edges {
		sum += e.Cost
	}
	return sum
}

// CCR returns the communication-to-computation ratio of the graph: the
// mean edge cost divided by the mean task cost. It returns 0 for a
// graph with no edges or zero total task cost.
func (g *Graph) CCR() float64 {
	if len(g.edges) == 0 || len(g.tasks) == 0 {
		return 0
	}
	meanW := g.TotalTaskCost() / float64(len(g.tasks))
	if meanW == 0 {
		return 0
	}
	meanC := g.TotalEdgeCost() / float64(len(g.edges))
	return meanC / meanW
}

// ScaleToCCR multiplies all edge costs by a common factor so that the
// graph's CCR becomes the target value. It is a no-op on graphs with no
// edges or zero computation cost.
func (g *Graph) ScaleToCCR(target float64) {
	cur := g.CCR()
	if cur == 0 {
		return
	}
	f := target / cur
	for i := range g.edges {
		g.edges[i].Cost *= f
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		tasks: append([]Task(nil), g.tasks...),
		edges: append([]Edge(nil), g.edges...),
		succ:  make([][]EdgeID, len(g.succ)),
		pred:  make([][]EdgeID, len(g.pred)),
	}
	for i := range g.succ {
		c.succ[i] = append([]EdgeID(nil), g.succ[i]...)
		c.pred[i] = append([]EdgeID(nil), g.pred[i]...)
	}
	return c
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("dag{tasks:%d edges:%d ccr:%.2f}", len(g.tasks), len(g.edges), g.CCR())
}
