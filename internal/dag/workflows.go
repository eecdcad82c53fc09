package dag

import "fmt"

// Montage builds a synthetic Montage-style astronomy workflow, a
// standard benchmark shape in workflow-scheduling studies: w parallel
// projection tasks, a quadratic-ish layer of overlap-difference tasks
// joining neighbouring projections, a fit/concat reduction, a
// background-model task fanned back out to w correction tasks, and a
// final mosaic merge.
func Montage(w int, taskCost, edgeCost float64) *Graph {
	if w < 2 {
		w = 2
	}
	b := new(Builder)
	proj := make([]TaskID, w)
	for i := range proj {
		proj[i] = b.AddTask(fmt.Sprintf("mProject%d", i), taskCost)
	}
	// Differences between neighbouring projections.
	var diffs []TaskID
	for i := 0; i+1 < w; i++ {
		d := b.AddTask(fmt.Sprintf("mDiff%d", i), taskCost/2)
		b.AddEdge(proj[i], d, edgeCost)
		b.AddEdge(proj[i+1], d, edgeCost)
		diffs = append(diffs, d)
	}
	fit := b.AddTask("mConcatFit", taskCost)
	for _, d := range diffs {
		b.AddEdge(d, fit, edgeCost/2)
	}
	bg := b.AddTask("mBgModel", taskCost)
	b.AddEdge(fit, bg, edgeCost/2)
	merge := b.AddTask("mAdd", 2*taskCost)
	for i := range proj {
		corr := b.AddTask(fmt.Sprintf("mBackground%d", i), taskCost/2)
		b.AddEdge(bg, corr, edgeCost/2)
		b.AddEdge(proj[i], corr, edgeCost)
		b.AddEdge(corr, merge, edgeCost)
	}
	return build(b)
}

// Epigenomics builds a synthetic Epigenomics-style bioinformatics
// workflow: `lanes` independent pipelines of `depth` sequential stages
// fed by one split task, merged by one final task — long chains with a
// single synchronization at each end.
func Epigenomics(lanes, depth int, taskCost, edgeCost float64) *Graph {
	if lanes < 1 {
		lanes = 1
	}
	if depth < 1 {
		depth = 1
	}
	b := new(Builder)
	split := b.AddTask("split", taskCost)
	merge := b.AddTask("merge", taskCost)
	for l := 0; l < lanes; l++ {
		prev := split
		for d := 0; d < depth; d++ {
			t := b.AddTask(fmt.Sprintf("lane%d_s%d", l, d), taskCost)
			b.AddEdge(prev, t, edgeCost)
			prev = t
		}
		b.AddEdge(prev, merge, edgeCost)
	}
	return build(b)
}

// Width returns the maximum number of tasks in any single layer of the
// graph's longest-path layering — a practical measure of available
// parallelism for experiment reporting. (The true maximum antichain is
// NP-hard to compute in general DAG weighted settings; layer width is
// the standard proxy.)
func (g *Graph) Width() int {
	depth := make([]int, g.NumTasks())
	maxDepth := 0
	for _, id := range g.topo {
		d := 0
		for _, eid := range g.pred.of(id) {
			if v := depth[g.edges[eid].From] + 1; v > d {
				d = v
			}
		}
		depth[id] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	counts := make([]int, maxDepth+1)
	width := 0
	for _, d := range depth {
		counts[d]++
		if counts[d] > width {
			width = counts[d]
		}
	}
	return width
}
