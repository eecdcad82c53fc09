package dag

import (
	"fmt"
	"math/rand"
)

// LU builds the task graph of tiled LU decomposition on an n x n tile
// matrix with the classic kernels: diag (getrf), row/col panel updates
// (trsm), and trailing updates (gemm). Dependencies follow the standard
// tiled algorithm.
func LU(n int, taskCost, edgeCost float64) *Graph {
	b := new(Builder)
	// last[i][j] is the task that last wrote tile (i, j).
	last := make([][]TaskID, n)
	for i := range last {
		last[i] = make([]TaskID, n)
		for j := range last[i] {
			last[i][j] = -1
		}
	}
	dep := func(t TaskID, i, j int) {
		if last[i][j] >= 0 {
			b.AddEdge(last[i][j], t, edgeCost)
		}
		last[i][j] = t
	}
	readDep := func(t TaskID, i, j int) {
		if last[i][j] >= 0 {
			b.AddEdge(last[i][j], t, edgeCost)
		}
	}
	for k := 0; k < n; k++ {
		diag := b.AddTask(fmt.Sprintf("getrf%d", k), taskCost)
		dep(diag, k, k)
		for j := k + 1; j < n; j++ {
			row := b.AddTask(fmt.Sprintf("trsmR%d_%d", k, j), taskCost)
			readDep(row, k, k)
			dep(row, k, j)
		}
		for i := k + 1; i < n; i++ {
			col := b.AddTask(fmt.Sprintf("trsmC%d_%d", k, i), taskCost)
			readDep(col, k, k)
			dep(col, i, k)
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				upd := b.AddTask(fmt.Sprintf("gemm%d_%d_%d", k, i, j), taskCost)
				readDep(upd, i, k)
				readDep(upd, k, j)
				dep(upd, i, j)
			}
		}
	}
	return build(b)
}

// Cholesky builds the task graph of tiled Cholesky factorization on an
// n x n tile matrix (potrf / trsm / syrk / gemm kernels, lower
// triangle).
func Cholesky(n int, taskCost, edgeCost float64) *Graph {
	b := new(Builder)
	last := make([][]TaskID, n)
	for i := range last {
		last[i] = make([]TaskID, n)
		for j := range last[i] {
			last[i][j] = -1
		}
	}
	dep := func(t TaskID, i, j int) {
		if last[i][j] >= 0 {
			b.AddEdge(last[i][j], t, edgeCost)
		}
		last[i][j] = t
	}
	readDep := func(t TaskID, i, j int) {
		if last[i][j] >= 0 {
			b.AddEdge(last[i][j], t, edgeCost)
		}
	}
	for k := 0; k < n; k++ {
		potrf := b.AddTask(fmt.Sprintf("potrf%d", k), taskCost)
		dep(potrf, k, k)
		for i := k + 1; i < n; i++ {
			trsm := b.AddTask(fmt.Sprintf("trsm%d_%d", k, i), taskCost)
			readDep(trsm, k, k)
			dep(trsm, i, k)
		}
		for i := k + 1; i < n; i++ {
			syrk := b.AddTask(fmt.Sprintf("syrk%d_%d", k, i), taskCost)
			readDep(syrk, i, k)
			dep(syrk, i, i)
			for j := k + 1; j < i; j++ {
				gemm := b.AddTask(fmt.Sprintf("gemm%d_%d_%d", k, i, j), taskCost)
				readDep(gemm, i, k)
				readDep(gemm, j, k)
				dep(gemm, i, j)
			}
		}
	}
	return build(b)
}

// DivideConquer builds a divide-and-conquer graph: a binary out-tree
// of split tasks of the given depth, leaf compute tasks, and a mirrored
// in-tree of merge tasks — the shape of mergesort, FFT recursion, or
// map-reduce with hierarchical reduction.
func DivideConquer(depth int, splitCost, leafCost, mergeCost, edgeCost float64) *Graph {
	b := new(Builder)
	var part func(d int) (TaskID, TaskID) // returns (entry, exit)
	part = func(d int) (TaskID, TaskID) {
		if d == 0 {
			leaf := b.AddTask("", leafCost)
			return leaf, leaf
		}
		split := b.AddTask("", splitCost)
		merge := b.AddTask("", mergeCost)
		for c := 0; c < 2; c++ {
			in, out := part(d - 1)
			b.AddEdge(split, in, edgeCost)
			b.AddEdge(out, merge, edgeCost)
		}
		return split, merge
	}
	part(depth)
	return build(b)
}

// MapReduce builds an m-mapper, r-reducer shuffle graph: one source
// (input split), m map tasks, r reduce tasks each consuming every
// mapper's partition (the all-to-all shuffle), and a sink. The shuffle
// is the canonical network-contention stress.
func MapReduce(m, r int, mapCost, reduceCost, shuffleCost float64) *Graph {
	b := new(Builder)
	src := b.AddTask("input", 1)
	sink := b.AddTask("output", 1)
	maps := make([]TaskID, m)
	for i := 0; i < m; i++ {
		maps[i] = b.AddTask(fmt.Sprintf("map%d", i), mapCost)
		b.AddEdge(src, maps[i], shuffleCost)
	}
	for j := 0; j < r; j++ {
		red := b.AddTask(fmt.Sprintf("reduce%d", j), reduceCost)
		for i := 0; i < m; i++ {
			b.AddEdge(maps[i], red, shuffleCost)
		}
		b.AddEdge(red, sink, shuffleCost)
	}
	return build(b)
}

// RandomSeriesParallel builds a random series-parallel DAG by
// recursively composing series and parallel blocks, a common model of
// structured workflows. The result has at least one task and a single
// source and sink for depth ≥ 1.
func RandomSeriesParallel(r *rand.Rand, depth int, taskCost, edgeCost CostDist) *Graph {
	b := new(Builder)
	var part func(d int) (TaskID, TaskID)
	part = func(d int) (TaskID, TaskID) {
		if d == 0 || r.Intn(4) == 0 {
			t := b.AddTask("", taskCost.Sample(r))
			return t, t
		}
		if r.Intn(2) == 0 {
			// Series: A then B.
			aIn, aOut := part(d - 1)
			bIn, bOut := part(d - 1)
			b.AddEdge(aOut, bIn, edgeCost.Sample(r))
			return aIn, bOut
		}
		// Parallel: fork into 2-3 branches and join.
		fork := b.AddTask("", taskCost.Sample(r))
		join := b.AddTask("", taskCost.Sample(r))
		branches := 2 + r.Intn(2)
		for range branches {
			in, out := part(d - 1)
			b.AddEdge(fork, in, edgeCost.Sample(r))
			b.AddEdge(out, join, edgeCost.Sample(r))
		}
		return fork, join
	}
	part(depth)
	return build(b)
}
