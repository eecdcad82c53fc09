package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dag"
	"repro/internal/graphio"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/verify"
	"repro/internal/workload"
)

// spec describes one workload. Serve workloads (algo != "") drive the
// edgeschedd daemon with a pool of request graphs on one topology;
// batch workloads run the one-shot schedulers in process over a fixed
// list of §6 instances.
type spec struct {
	name string

	// Serve workloads.
	algo               string // the daemon's -algo
	full               bool   // request ?full=1 responses
	minTasks, maxTasks int    // request graph sizes

	// Batch workloads.
	cells []cell
}

func (w spec) serving() bool { return w.algo != "" }

// cell is one batch instance: a §6 random cluster and layered DAG.
type cell struct {
	procs int
	ccr   float64
	het   bool
	tasks int
}

// poolSize is the number of distinct request graphs of a serve
// workload.
const poolSize = 64

// clients is the number of closed-loop clients (and connections) of a
// serve workload: one per core of the 2-core machine the benchmark was
// sized on, with the daemon sharing them.
const clients = 2

// serveProcs is the processor count of the serve workloads' cluster.
const serveProcs = 32

// workloads, in the order a run without -workload takes them. One
// random instance's scheduling time moves by 10-20% from seed to seed
// (the graph's structure decides how much contention the timelines
// see), so the batch workloads hold enough instances for their pass
// time to move by only a few percent, as the metric bounds require.
var workloads = []spec{
	{name: "serve_small", algo: "OIHSA", minTasks: 21, maxTasks: 41},
	{name: "serve_full", algo: "BBSA", full: true, minTasks: 101, maxTasks: 201},
	{name: "paper_sweep", cells: sweepCells(10)},
	{name: "long_links", cells: repeatCell(cell{procs: 4, ccr: 10, tasks: 3000}, 24)},
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// sweepCells is the paper's §6 grid {homogeneous, heterogeneous} × P ∈
// {8, 32} × CCR ∈ {0.5, 2, 8}, reps instances per cell. Task counts are
// the midpoints of equal slices of U(40, 1000), dealt to the instances
// by a stride coprime to their number, so each cell gets sizes across
// the whole range and every seed sees the same size mix: the seed
// varies structure, costs and topology, not size.
func sweepCells(reps int) []cell {
	var grid []cell
	for _, het := range []bool{false, true} {
		for _, procs := range []int{8, 32} {
			for _, ccr := range []float64{0.5, 2, 8} {
				grid = append(grid, cell{procs: procs, ccr: ccr, het: het})
			}
		}
	}
	n := reps * len(grid)
	out := make([]cell, n)
	for j := range out {
		out[j] = grid[j%len(grid)]
		slice := 7 * j % n
		out[j].tasks = 40 + 960*(2*slice+1)/(2*n)
	}
	return out
}

func repeatCell(c cell, n int) []cell {
	out := make([]cell, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// item is one input the program under test receives, as JSON: a task
// graph, and for batch workloads the instance's own topology.
type item struct {
	topo  []byte // nil for serve workloads (one topology for all)
	graph []byte
}

// inputs are a workload's generated inputs.
type inputs struct {
	topo  []byte // serve workloads: the daemon's topology
	items []item
}

// serveTopologySeed draws the serve workloads' cluster. The daemon
// serves the same cluster under every seed, which draws only the
// request graphs: serving throughput depends on the cluster by about
// 15%, which a cluster per seed would add to the variation between
// seeds.
const serveTopologySeed = 2006

// generate builds a workload's inputs from the seed. Serve request
// graphs use edgeload's cost ranges; their sizes are spread evenly over
// the workload's range for the same reason as sweepCells.
func generate(w spec, seed int64) (inputs, error) {
	var in inputs
	if w.serving() {
		tr := rand.New(rand.NewSource(serveTopologySeed))
		topo := network.RandomCluster(tr, network.RandomClusterParams{
			Processors: serveProcs,
			ProcSpeed:  network.UniformRange(tr, 1, 10),
			LinkSpeed:  network.UniformRange(tr, 1, 10),
		})
		var err error
		if in.topo, err = encodeTopology(topo); err != nil {
			return in, err
		}
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < poolSize; i++ {
			g := dag.RandomLayered(r, dag.RandomLayeredParams{
				Tasks:    w.minTasks + i*(w.maxTasks-w.minTasks+1)/poolSize,
				TaskCost: dag.CostDist{Lo: 1, Hi: 50},
				EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
			})
			body, err := encodeGraph(g)
			if err != nil {
				return in, err
			}
			in.items = append(in.items, item{graph: body})
		}
		return in, nil
	}
	for i, c := range w.cells {
		inst := workload.Generate(workload.Params{
			Processors:    c.procs,
			CCR:           c.ccr,
			Heterogeneous: c.het,
			MinTasks:      c.tasks,
			MaxTasks:      c.tasks,
			Seed:          seed*1000003 + int64(i),
		})
		topo, err := encodeTopology(inst.Net)
		if err != nil {
			return in, err
		}
		graph, err := encodeGraph(inst.Graph)
		if err != nil {
			return in, err
		}
		in.items = append(in.items, item{topo: topo, graph: graph})
	}
	return in, nil
}

func encodeTopology(t *network.Topology) ([]byte, error) {
	var b bytes.Buffer
	err := graphio.WriteTopology(&b, t)
	return b.Bytes(), err
}

func encodeGraph(g *dag.Graph) ([]byte, error) {
	var b bytes.Buffer
	err := graphio.WriteGraph(&b, g)
	return b.Bytes(), err
}

// problem is one decoded input.
type problem struct {
	g   *dag.Graph
	net *network.Topology
}

// decode parses every input through graphio, exactly as the daemon
// parses its topology and a request body.
func decode(in inputs) ([]problem, error) {
	var shared *network.Topology
	if in.topo != nil {
		t, err := graphio.ReadTopology(bytes.NewReader(in.topo))
		if err != nil {
			return nil, err
		}
		shared = t
	}
	out := make([]problem, len(in.items))
	for i, it := range in.items {
		p, err := decodeItem(it, shared)
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

// decodeItem parses one input; shared is the serve workloads' topology.
func decodeItem(it item, shared *network.Topology) (problem, error) {
	p := problem{net: shared}
	if it.topo != nil {
		t, err := graphio.ReadTopology(bytes.NewReader(it.topo))
		if err != nil {
			return p, err
		}
		p.net = t
	}
	g, err := graphio.ReadGraph(bytes.NewReader(it.graph))
	p.g = g
	return p, err
}

// paperAlgorithms are the three algorithms of the paper, baseline
// first, by the names edgeschedd's -algo accepts.
var paperAlgorithms = []string{"BA", "OIHSA", "BBSA"}

// preset returns the scheduler edgeschedd builds for -algo name.
func preset(name string) (*sched.ListScheduler, error) {
	switch name {
	case "BA":
		return sched.NewBA(), nil
	case "OIHSA":
		return sched.NewOIHSA(), nil
	case "BBSA":
		return sched.NewBBSA(), nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}

// reference is what a run keeps of a verified cold schedule: enough to
// check a later schedule bit for bit, and its makespan.
type reference struct {
	fp       [sha256.Size]byte
	makespan float64
}

// references schedules every problem cold and one-shot with each
// algorithm, checks each schedule with verify.Verify and keeps its
// reference: refs[a][i] is algos[a] on problem i. keep, if not nil,
// also receives each schedule.
func references(ps []problem, algos []string, keep func(a, i int, s *sched.Schedule)) ([][]reference, error) {
	refs := make([][]reference, len(algos))
	for a, name := range algos {
		ls, err := preset(name)
		if err != nil {
			return nil, err
		}
		refs[a] = make([]reference, len(ps))
		for i, p := range ps {
			s, err := ls.Schedule(p.g, p.net)
			if err == nil {
				err = verify.Verify(s).Err()
			}
			if err != nil {
				return nil, fmt.Errorf("%s on input %d: %w", name, i, err)
			}
			refs[a][i] = reference{fp: fingerprint(s), makespan: s.Makespan}
			if keep != nil {
				keep(a, i, s)
			}
		}
	}
	return refs, nil
}

// fingerprint hashes every field sched.DiffSchedules compares, so two
// schedules of one input have equal fingerprints exactly when they are
// bit-identical. Keeping fingerprints instead of schedules keeps a
// run's memory independent of its instance count.
func fingerprint(s *sched.Schedule) [sha256.Size]byte {
	h := sha256.New()
	b := make([]byte, 0, 8192)
	u := func(x uint64) { b = binary.LittleEndian.AppendUint64(b, x) }
	i := func(x int) { u(uint64(x)) }
	f := func(x float64) { u(math.Float64bits(x)) }
	tasks := func(ts []sched.TaskPlacement) {
		i(len(ts))
		for _, t := range ts {
			i(int(t.Task))
			i(int(t.Proc))
			f(t.Start)
			f(t.Finish)
		}
	}
	b = append(b, s.Algorithm...)
	i(len(s.Algorithm))
	if s.Ideal {
		i(1)
	} else {
		i(0)
	}
	i(int(s.Switching))
	f(s.HopDelay)
	f(s.Makespan)
	tasks(s.Tasks)
	tasks(s.Duplicates)
	i(len(s.Edges))
	for _, es := range s.Edges {
		if len(b) > 4096 {
			h.Write(b)
			b = b[:0]
		}
		if es == nil {
			i(-1)
			continue
		}
		i(int(es.Edge))
		i(int(es.SrcProc))
		i(int(es.DstProc))
		f(es.Arrival)
		f(es.Base)
		i(len(es.Route))
		for _, l := range es.Route {
			i(int(l))
		}
		i(len(es.Placements))
		for _, pl := range es.Placements {
			i(int(pl.Link))
			f(pl.Start)
			f(pl.Finish)
			i(len(pl.Chunks))
			for _, c := range pl.Chunks {
				f(c.Start)
				f(c.End)
				f(c.Rate)
				f(c.Volume)
			}
		}
	}
	h.Write(b)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// digest is a short hash of every reference's fingerprint: equal
// digests mean bit-identical schedules.
func digest(refs [][]reference) string {
	h := sha256.New()
	for _, rs := range refs {
		for _, r := range rs {
			h.Write(r.fp[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// improvement is the mean stats.ImprovementPct of algorithm a over the
// baseline refs[0], the quantity the paper's figures plot.
func improvement(refs [][]reference, a int) float64 {
	xs := make([]float64, len(refs[a]))
	for i, r := range refs[a] {
		xs[i] = stats.ImprovementPct(refs[0][i].makespan, r.makespan)
	}
	return stats.Mean(xs)
}
