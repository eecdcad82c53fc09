package dag

import (
	"fmt"
	"math/rand"
)

// CostDist describes a uniform integer cost distribution U(Lo, Hi)
// (inclusive), matching the paper's U(i,j) notation in §6.
type CostDist struct {
	Lo, Hi int
}

// Sample draws one value from the distribution.
func (d CostDist) Sample(r *rand.Rand) float64 {
	if d.Hi <= d.Lo {
		return float64(d.Lo)
	}
	return float64(d.Lo + r.Intn(d.Hi-d.Lo+1))
}

// RandomLayeredParams parameterizes RandomLayered. The defaults used by
// the experiment harness mirror the paper's §6 setup: |V| ∈ U(40,1000),
// task and edge costs ∈ U(1,1000), then rescaled to a target CCR.
type RandomLayeredParams struct {
	Tasks     int      // total number of tasks (≥ 1)
	TaskCost  CostDist // computation cost distribution
	EdgeCost  CostDist // communication cost distribution
	FanOut    int      // max successors sampled per task (default 4)
	LayerSize int      // mean layer width (default ~sqrt(Tasks))
}

// RandomLayered builds a random layered DAG in the style used by the
// scheduling literature the paper cites (Bajaj & Agrawal, TPDS 2004):
// tasks are partitioned into consecutive layers of random width, and
// each task receives edges from randomly chosen tasks of earlier layers
// so that every non-first-layer task has at least one predecessor (the
// graph is "connected downward" and always acyclic).
func RandomLayered(r *rand.Rand, p RandomLayeredParams) *Graph {
	if p.Tasks < 1 {
		p.Tasks = 1
	}
	if p.FanOut <= 0 {
		p.FanOut = 4
	}
	if p.LayerSize <= 0 {
		p.LayerSize = isqrt(p.Tasks)
		if p.LayerSize < 1 {
			p.LayerSize = 1
		}
	}
	b := new(Builder)
	// Partition tasks into layers of width U(1, 2*LayerSize-1) so the
	// mean width is LayerSize.
	var layers [][]TaskID
	remaining := p.Tasks
	for remaining > 0 {
		w := 1 + r.Intn(2*p.LayerSize-1+1)
		if w > remaining {
			w = remaining
		}
		layer := make([]TaskID, 0, w)
		for i := 0; i < w; i++ {
			layer = append(layer, b.AddTask("", p.TaskCost.Sample(r)))
		}
		layers = append(layers, layer)
		remaining -= w
	}
	// Wire edges: each task in layer k>0 gets 1..FanOut predecessors
	// drawn from all earlier layers (biased to the previous layer).
	for k := 1; k < len(layers); k++ {
		prev := layers[k-1]
		for _, to := range layers[k] {
			npred := 1 + r.Intn(p.FanOut)
			used := map[TaskID]bool{}
			for i := 0; i < npred; i++ {
				var from TaskID
				if r.Intn(100) < 70 || k == 1 {
					from = prev[r.Intn(len(prev))]
				} else {
					kk := r.Intn(k)
					from = layers[kk][r.Intn(len(layers[kk]))]
				}
				if used[from] {
					continue
				}
				used[from] = true
				b.AddEdge(from, to, p.EdgeCost.Sample(r))
			}
		}
	}
	return build(b)
}

// build returns the graph a generator made. Generators make acyclic
// graphs without duplicate edges, so Build fails only on a cost
// argument it does not admit: the caller's error, so build panics.
func build(b *Builder) *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func isqrt(n int) int {
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}

// Chain builds a linear chain n0 -> n1 -> ... -> n(k-1) with the given
// uniform task and edge costs.
func Chain(k int, taskCost, edgeCost float64) *Graph {
	b := new(Builder)
	prev := TaskID(-1)
	for i := 0; i < k; i++ {
		id := b.AddTask("", taskCost)
		if prev >= 0 {
			b.AddEdge(prev, id, edgeCost)
		}
		prev = id
	}
	return build(b)
}

// ForkJoin builds a fork-join graph: one source task fanning out to
// width parallel tasks which all join into one sink.
func ForkJoin(width int, taskCost, edgeCost float64) *Graph {
	b := new(Builder)
	src := b.AddTask("fork", taskCost)
	sink := b.AddTask("join", taskCost)
	for i := 0; i < width; i++ {
		mid := b.AddTask(fmt.Sprintf("w%d", i), taskCost)
		b.AddEdge(src, mid, edgeCost)
		b.AddEdge(mid, sink, edgeCost)
	}
	return build(b)
}

// Diamond builds the classic 4-task diamond: a -> {b, c} -> d.
func Diamond(taskCost, edgeCost float64) *Graph {
	b := new(Builder)
	ta := b.AddTask("a", taskCost)
	tb := b.AddTask("b", taskCost)
	tc := b.AddTask("c", taskCost)
	td := b.AddTask("d", taskCost)
	b.AddEdge(ta, tb, edgeCost)
	b.AddEdge(ta, tc, edgeCost)
	b.AddEdge(tb, td, edgeCost)
	b.AddEdge(tc, td, edgeCost)
	return build(b)
}

// OutTree builds a complete out-tree (rooted fan-out tree) of the given
// degree and depth; depth 0 is a single task.
func OutTree(degree, depth int, taskCost, edgeCost float64) *Graph {
	b := new(Builder)
	root := b.AddTask("root", taskCost)
	frontier := []TaskID{root}
	for d := 0; d < depth; d++ {
		var next []TaskID
		for _, p := range frontier {
			for c := 0; c < degree; c++ {
				id := b.AddTask("", taskCost)
				b.AddEdge(p, id, edgeCost)
				next = append(next, id)
			}
		}
		frontier = next
	}
	return build(b)
}

// InTree builds a complete in-tree (reduction tree): leaves feed upward
// into a single final task. degree is the reduction arity.
func InTree(degree, depth int, taskCost, edgeCost float64) *Graph {
	b := new(Builder)
	// Build level by level from the leaves.
	width := 1
	for i := 0; i < depth; i++ {
		width *= degree
	}
	level := make([]TaskID, width)
	for i := range level {
		level[i] = b.AddTask("", taskCost)
	}
	for width > 1 {
		width /= degree
		next := make([]TaskID, width)
		for i := range next {
			next[i] = b.AddTask("", taskCost)
			for c := 0; c < degree; c++ {
				b.AddEdge(level[i*degree+c], next[i], edgeCost)
			}
		}
		level = next
	}
	return build(b)
}

// FFT builds the task graph of a radix-2 FFT butterfly on 2^logN
// points: logN+1 rows of 2^logN tasks, each task in row r>0 depending
// on its own column and the butterfly partner column of row r-1. This
// is a standard benchmark graph in the scheduling literature.
func FFT(logN int, taskCost, edgeCost float64) *Graph {
	n := 1 << uint(logN)
	b := new(Builder)
	prev := make([]TaskID, n)
	for i := 0; i < n; i++ {
		prev[i] = b.AddTask(fmt.Sprintf("fft0_%d", i), taskCost)
	}
	for r := 1; r <= logN; r++ {
		cur := make([]TaskID, n)
		stride := 1 << uint(logN-r)
		for i := 0; i < n; i++ {
			cur[i] = b.AddTask(fmt.Sprintf("fft%d_%d", r, i), taskCost)
			b.AddEdge(prev[i], cur[i], edgeCost)
			b.AddEdge(prev[i^stride], cur[i], edgeCost)
		}
		prev = cur
	}
	return build(b)
}

// GaussianElimination builds the task graph of Gaussian elimination on
// an n x n matrix: for each pivot step k there is a pivot task followed
// by update tasks for columns k+1..n-1, with the usual dependencies.
// Total tasks: n-1 pivots + sum_{k} (n-1-k) updates.
func GaussianElimination(n int, taskCost, edgeCost float64) *Graph {
	b := new(Builder)
	// update[j] holds the task that last wrote column j.
	last := make([]TaskID, n)
	for j := range last {
		last[j] = -1
	}
	for k := 0; k < n-1; k++ {
		piv := b.AddTask(fmt.Sprintf("piv%d", k), taskCost)
		if last[k] >= 0 {
			b.AddEdge(last[k], piv, edgeCost)
		}
		for j := k + 1; j < n; j++ {
			upd := b.AddTask(fmt.Sprintf("upd%d_%d", k, j), taskCost)
			b.AddEdge(piv, upd, edgeCost)
			if last[j] >= 0 {
				b.AddEdge(last[j], upd, edgeCost)
			}
			last[j] = upd
		}
	}
	return build(b)
}

// Laplace builds the task graph of a wavefront (Laplace equation /
// dynamic-programming style) sweep over an n x n grid: task (i,j)
// depends on (i-1,j) and (i,j-1).
func Laplace(n int, taskCost, edgeCost float64) *Graph {
	b := new(Builder)
	ids := make([][]TaskID, n)
	for i := 0; i < n; i++ {
		ids[i] = make([]TaskID, n)
		for j := 0; j < n; j++ {
			ids[i][j] = b.AddTask(fmt.Sprintf("l%d_%d", i, j), taskCost)
			if i > 0 {
				b.AddEdge(ids[i-1][j], ids[i][j], edgeCost)
			}
			if j > 0 {
				b.AddEdge(ids[i][j-1], ids[i][j], edgeCost)
			}
		}
	}
	return build(b)
}

// Stencil builds a layered 1-D stencil graph: rows of width tasks where
// task (r, i) depends on (r-1, i-1), (r-1, i), (r-1, i+1) as available.
func Stencil(rows, width int, taskCost, edgeCost float64) *Graph {
	b := new(Builder)
	prev := make([]TaskID, width)
	for i := 0; i < width; i++ {
		prev[i] = b.AddTask("", taskCost)
	}
	for r := 1; r < rows; r++ {
		cur := make([]TaskID, width)
		for i := 0; i < width; i++ {
			cur[i] = b.AddTask("", taskCost)
			for d := -1; d <= 1; d++ {
				if j := i + d; j >= 0 && j < width {
					b.AddEdge(prev[j], cur[i], edgeCost)
				}
			}
		}
		prev = cur
	}
	return build(b)
}
