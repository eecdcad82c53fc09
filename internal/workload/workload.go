// Package workload generates the random problem instances of the
// paper's evaluation (§6): task graphs with |V| ∈ U(40, 1000) tasks and
// costs ∈ U(1, 1000) rescaled to a target CCR, scheduled onto random
// switched clusters where every switch hosts U(4, 16) processors and
// the switch graph is randomly connected. All generation is driven by
// an explicit seed so every experiment is reproducible.
package workload

import (
	"math/rand"

	"repro/internal/dag"
	"repro/internal/network"
)

// Params describes one experimental cell of the paper's §6 setup.
type Params struct {
	// Processors is the machine size; the paper sweeps
	// {2, 4, 8, 16, 32, 64, 128}.
	Processors int
	// CCR is the communication-to-computation ratio the task graph is
	// rescaled to; the paper sweeps 0.1–10. It must not exceed MaxCCR.
	CCR float64
	// Heterogeneous selects U(1,10) processor and link speeds; when
	// false all speeds are 1 (the paper's homogeneous systems).
	Heterogeneous bool
	// MinTasks/MaxTasks bound the task count, drawn uniformly; the
	// paper uses U(40, 1000). Zero values default to the paper's.
	MinTasks, MaxTasks int
	// Seed drives all randomness of the instance.
	Seed int64
}

// withDefaults fills zero fields with the paper's values.
func (p Params) withDefaults() Params {
	if p.Processors <= 0 {
		p.Processors = 8
	}
	if p.CCR <= 0 {
		p.CCR = 1
	}
	if p.MinTasks <= 0 {
		p.MinTasks = 40
	}
	if p.MaxTasks < p.MinTasks {
		p.MaxTasks = 1000
	}
	return p
}

// MaxCCR is the largest CCR Generate rescales a graph to. Its costs
// are drawn from U(1, 1000), so rescaling multiplies an edge cost by at
// most 1000 times the CCR, and every cost stays within the 1e300 a
// dag.Graph admits.
const MaxCCR = 1e290

// Instance is one generated problem: a task graph plus a target
// machine.
type Instance struct {
	Graph  *dag.Graph
	Net    *network.Topology
	Params Params
}

// Generate builds one reproducible instance from the parameters. It
// panics if p.CCR exceeds MaxCCR.
func Generate(p Params) Instance {
	p = p.withDefaults()
	r := rand.New(rand.NewSource(p.Seed))
	tasks := p.MinTasks
	if p.MaxTasks > p.MinTasks {
		tasks += r.Intn(p.MaxTasks - p.MinTasks + 1)
	}
	g, err := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    tasks,
		TaskCost: dag.CostDist{Lo: 1, Hi: 1000},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 1000},
	}).ScaleToCCR(p.CCR)
	if err != nil {
		panic(err)
	}

	proc := network.Uniform(1)
	link := network.Uniform(1)
	if p.Heterogeneous {
		proc = network.UniformRange(r, 1, 10)
		link = network.UniformRange(r, 1, 10)
	}
	net := network.RandomCluster(r, network.RandomClusterParams{
		Processors: p.Processors,
		ProcSpeed:  proc,
		LinkSpeed:  link,
	})
	return Instance{Graph: g, Net: net, Params: p}
}

// PaperCCRs returns the CCR sweep of Figures 1 and 3:
// 0.1–1.0 in steps of 0.1, then 2.0–10.0 in steps of 1.0.
func PaperCCRs() []float64 {
	var out []float64
	for i := 1; i <= 10; i++ {
		out = append(out, float64(i)/10)
	}
	for i := 2; i <= 10; i++ {
		out = append(out, float64(i))
	}
	return out
}

// PaperProcessorCounts returns the machine-size sweep of Figures 2
// and 4: {2, 4, 8, 16, 32, 64, 128}.
func PaperProcessorCounts() []int {
	return []int{2, 4, 8, 16, 32, 64, 128}
}
