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

// Graph is a directed acyclic task graph G = (V, E, w, c), made and
// checked by Builder.Build and immutable from then on: every Graph is
// valid, so no caller checks one again, and concurrent Schedule
// requests share it without copying. Besides the tasks and edges it
// stores the adjacency lists in compressed form and the topological
// order. The zero value is the empty graph.
type Graph struct {
	tasks      []Task
	edges      []Edge
	succ, pred adjacency
	topo       []TaskID // smallest ready ID first
}

// adjacency holds per-task edge lists in compressed form: the edges of
// task i are ids[off[i]:off[i+1]], in edge-ID order.
type adjacency struct {
	off []int
	ids []EdgeID
}

func (a adjacency) of(id TaskID) []EdgeID {
	lo, hi := a.off[id], a.off[id+1]
	return a.ids[lo:hi:hi]
}

// newAdjacency groups the edge IDs by key(e), in edge-ID order.
func newAdjacency(n int, edges []Edge, key func(Edge) TaskID) adjacency {
	a := adjacency{off: make([]int, n+1), ids: make([]EdgeID, len(edges))}
	for _, e := range edges {
		a.off[key(e)]++
	}
	for i := 1; i <= n; i++ {
		a.off[i] += a.off[i-1]
	}
	// off[k] is now the end of k's list: filling from the last edge
	// back moves it to the start and keeps every list in ID order.
	for i := len(edges) - 1; i >= 0; i-- {
		k := key(edges[i])
		a.off[k]--
		a.ids[a.off[k]] = edges[i].ID
	}
	return a
}

// Builder collects the tasks and edges of a task graph. Build checks
// them and returns the Graph. The zero value is an empty builder; a
// Builder is not safe for concurrent use.
type Builder struct {
	tasks []Task
	edges []Edge
}

// AddTask appends a task with the given name and computation cost and
// returns its ID. An empty name becomes "n<id>".
func (b *Builder) AddTask(name string, cost float64) TaskID {
	id := TaskID(len(b.tasks))
	if name == "" {
		name = fmt.Sprintf("n%d", id)
	}
	b.tasks = append(b.tasks, Task{ID: id, Name: name, Cost: cost})
	return id
}

// AddEdge appends a communication edge from one task to another and
// returns its ID. Build checks the edge.
func (b *Builder) AddEdge(from, to TaskID, cost float64) EdgeID {
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, Edge{ID: id, From: from, To: to, Cost: cost})
	return id
}

// ErrCycle is reported by Build when the graph contains a directed
// cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// validCost reports whether c is a cost a Graph admits: non-negative,
// not NaN, and at most 1e300.
func validCost(c float64) bool { return c >= 0 && c <= 1e300 }

// Build checks the tasks and edges added so far and returns them as a
// Graph. It rejects an edge whose endpoint does not exist, a self-loop,
// a second edge between the same two tasks (an edge models the single
// data transfer between them), a cost that is negative, NaN or above
// 1e300, and a cycle (ErrCycle). The builder may go on adding to make
// further graphs; a graph built earlier does not change.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.tasks)
	for _, t := range b.tasks {
		if !validCost(t.Cost) {
			return nil, fmt.Errorf("dag: task %d (%s) has invalid cost %v", t.ID, t.Name, t.Cost)
		}
	}
	for _, e := range b.edges {
		switch {
		case e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n:
			return nil, fmt.Errorf("dag: edge %d (%d->%d) references a task outside [0,%d)", e.ID, e.From, e.To, n)
		case e.From == e.To:
			return nil, fmt.Errorf("dag: edge %d is a self-loop on task %d", e.ID, e.From)
		case !validCost(e.Cost):
			return nil, fmt.Errorf("dag: edge %d (%d->%d) has invalid cost %v", e.ID, e.From, e.To, e.Cost)
		}
	}
	g := &Graph{
		tasks: b.tasks[:n:n],
		edges: b.edges[:len(b.edges):len(b.edges)],
		succ:  newAdjacency(n, b.edges, func(e Edge) TaskID { return e.From }),
		pred:  newAdjacency(n, b.edges, func(e Edge) TaskID { return e.To }),
	}
	// Each succ list is in edge order, and mark[to] holds from+1 once
	// from has an edge to to, so a repeat is a duplicate.
	mark := make([]TaskID, n)
	for from := range TaskID(n) {
		for _, eid := range g.succ.of(from) {
			to := g.edges[eid].To
			if mark[to] == from+1 {
				return nil, fmt.Errorf("dag: duplicate edge %d->%d", from, to)
			}
			mark[to] = from + 1
		}
	}
	if g.topo = g.topoOrder(); len(g.topo) != n {
		return nil, ErrCycle
	}
	return g, nil
}

// topoOrder runs Kahn's algorithm, smallest ready ID first. On a
// cyclic graph the order misses the cycle's tasks.
func (g *Graph) topoOrder() []TaskID {
	n := len(g.tasks)
	indeg := make([]int, n)
	ready := taskIDHeap{a: make([]TaskID, 0, n)}
	for i := range TaskID(n) {
		if indeg[i] = len(g.pred.of(i)); indeg[i] == 0 {
			ready.push(i)
		}
	}
	order := make([]TaskID, 0, n)
	for ready.len() > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, eid := range g.succ.of(id) {
			to := g.edges[eid].To
			if indeg[to]--; indeg[to] == 0 {
				ready.push(to)
			}
		}
	}
	return order
}

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

// Succ returns the IDs of the edges leaving task id, in ID order.
// Shared; do not modify.
func (g *Graph) Succ(id TaskID) []EdgeID { return g.succ.of(id) }

// Pred returns the IDs of the edges entering task id, in ID order.
// Shared; do not modify.
func (g *Graph) Pred(id TaskID) []EdgeID { return g.pred.of(id) }

// InDegree reports the number of incoming edges of task id.
func (g *Graph) InDegree(id TaskID) int { return len(g.pred.of(id)) }

// TopoOrder returns the task IDs in topological order (Kahn's
// algorithm, smallest ID first among ready tasks, so the order is
// deterministic). Shared; do not modify.
func (g *Graph) TopoOrder() []TaskID { return g.topo }

// Sources returns the tasks without predecessors, in ID order.
func (g *Graph) Sources() []TaskID {
	var out []TaskID
	for i := range TaskID(len(g.tasks)) {
		if len(g.pred.of(i)) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Sinks returns the tasks without successors, in ID order.
func (g *Graph) Sinks() []TaskID {
	var out []TaskID
	for i := range TaskID(len(g.tasks)) {
		if len(g.succ.of(i)) == 0 {
			out = append(out, i)
		}
	}
	return out
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
// by TaskID.
func (g *Graph) BottomLevels() []float64 { return g.bottomLevels(true) }

// bottomLevels computes the bottom levels, with the edge costs when
// comm is set and without them otherwise.
func (g *Graph) bottomLevels(comm bool) []float64 {
	bl := make([]float64, len(g.tasks))
	for i := len(g.topo) - 1; i >= 0; i-- {
		id := g.topo[i]
		best := 0.0
		for _, eid := range g.succ.of(id) {
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
func (g *Graph) TopLevels() []float64 {
	tl := make([]float64, len(g.tasks))
	for _, id := range g.topo {
		best := 0.0
		for _, eid := range g.pred.of(id) {
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
func (g *Graph) CriticalPathLength() float64 { return maxLevel(g.bottomLevels(true)) }

// CompCriticalPathLength returns the length of the longest path through
// the graph counting computation costs only, i.e. the maximum
// computation-only bottom level.
func (g *Graph) CompCriticalPathLength() float64 { return maxLevel(g.bottomLevels(false)) }

// maxLevel returns the largest of the levels, 0 for none.
func maxLevel(levels []float64) float64 {
	best := 0.0
	for _, v := range levels {
		if v > best {
			best = v
		}
	}
	return best
}

// PriorityOrder returns the task IDs sorted by decreasing bottom level,
// breaking ties by topological rank. With positive task costs this
// order is always a valid topological order (bl strictly decreases
// along edges); ties from zero-cost tasks are resolved by the
// topological rank so the property holds for all graphs. The error is
// always nil: a built graph is acyclic.
func (g *Graph) PriorityOrder() ([]TaskID, error) {
	return g.orderByKeyDesc(g.bottomLevels(true)), nil
}

// orderByKeyDesc returns a copy of the topological order sorted by
// decreasing key, tie-broken by topological rank. The rank is unique,
// so the order is total, and any key that is non-increasing along
// edges yields a valid topological order. The stored order is shared
// by concurrent readers, so it is never sorted in place.
func (g *Graph) orderByKeyDesc(key []float64) []TaskID {
	rank := make([]int, len(g.tasks))
	for i, id := range g.topo {
		rank[id] = i
	}
	order := slices.Clone(g.topo)
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
func (g *Graph) CompPriorityOrder() []TaskID {
	return g.orderByKeyDesc(g.bottomLevels(false))
}

// CriticalityPriorityOrder returns the tasks sorted by decreasing
// bl + tl (path length through the task): critical-path tasks first,
// as CPOP-style rankings use. That key is not monotone along edges, so
// it is first clamped to be non-increasing along the topological
// order; sorting by decreasing key, ties by topological rank, then
// yields a topological order.
func (g *Graph) CriticalityPriorityOrder() []TaskID {
	key := g.bottomLevels(true)
	for i, t := range g.TopLevels() {
		key[i] += t
	}
	// Clamp: a task's key must not exceed any predecessor's key.
	for _, id := range g.topo {
		for _, eid := range g.pred.of(id) {
			if k := key[g.edges[eid].From]; k < key[id] {
				key[id] = k
			}
		}
	}
	return g.orderByKeyDesc(key)
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

// ScaleToCCR returns a graph with g's tasks and structure whose edge
// costs are g's multiplied by a common factor, so that its CCR is the
// target value; g is unchanged. It returns g itself when g has no
// edges or zero computation cost, and an error when a scaled cost
// leaves the bounds Build admits.
func (g *Graph) ScaleToCCR(target float64) (*Graph, error) {
	cur := g.CCR()
	if cur == 0 {
		return g, nil
	}
	f := target / cur
	scaled := *g
	scaled.edges = make([]Edge, len(g.edges))
	for i, e := range g.edges {
		if e.Cost *= f; !validCost(e.Cost) {
			return nil, fmt.Errorf("dag: CCR %v scales edge %d (%d->%d) to invalid cost %v", target, e.ID, e.From, e.To, e.Cost)
		}
		scaled.edges[i] = e
	}
	return &scaled, nil
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("dag{tasks:%d edges:%d ccr:%.2f}", len(g.tasks), len(g.edges), g.CCR())
}
