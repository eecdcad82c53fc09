package experiment

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/stats"
)

// FamilyRow is one family's aggregated result.
type FamilyRow struct {
	Family string
	// Tasks and Width are the means over the row's instances, rounded:
	// the random families draw a new graph per rep.
	Tasks int
	Width int
	// BaseMakespan summarizes the baseline across reps.
	BaseMakespan stats.Summary
	// Improvement maps non-baseline algorithm names to improvement
	// percentage summaries.
	Improvement map[string]stats.Summary
}

// FamilyResult is the full per-family comparison.
type FamilyResult struct {
	Algorithms []string
	Rows       []FamilyRow
}

// familyGenerators builds each benchmark family at a size comparable
// to ~100-200 tasks.
func familyGenerators(r *rand.Rand) []struct {
	name string
	gen  func() *dag.Graph
} {
	return []struct {
		name string
		gen  func() *dag.Graph
	}{
		{"random-layered", func() *dag.Graph {
			return dag.RandomLayered(r, dag.RandomLayeredParams{
				Tasks:    150,
				TaskCost: dag.CostDist{Lo: 1, Hi: 1000},
				EdgeCost: dag.CostDist{Lo: 1, Hi: 1000},
			})
		}},
		{"series-parallel", func() *dag.Graph {
			return dag.RandomSeriesParallel(r, 6,
				dag.CostDist{Lo: 1, Hi: 1000}, dag.CostDist{Lo: 1, Hi: 1000})
		}},
		{"fft", func() *dag.Graph { return dag.FFT(5, 100, 100) }},
		{"gauss", func() *dag.Graph { return dag.GaussianElimination(16, 100, 100) }},
		{"lu", func() *dag.Graph { return dag.LU(7, 100, 100) }},
		{"cholesky", func() *dag.Graph { return dag.Cholesky(8, 100, 100) }},
		{"stencil", func() *dag.Graph { return dag.Stencil(12, 12, 100, 100) }},
		{"laplace", func() *dag.Graph { return dag.Laplace(12, 100, 100) }},
		{"montage", func() *dag.Graph { return dag.Montage(30, 100, 100) }},
		{"epigenomics", func() *dag.Graph { return dag.Epigenomics(8, 15, 100, 100) }},
		{"mapreduce", func() *dag.Graph { return dag.MapReduce(24, 8, 100, 200, 100) }},
		{"divide-conquer", func() *dag.Graph { return dag.DivideConquer(6, 50, 100, 80, 100) }},
	}
}

// Families runs the per-family comparison: the same machine and the
// same algorithms, one row per structured graph family, so
// structure-dependent effects become visible. It runs on one machine
// size and one CCR, 8 and 2 unless cfg gives one; more than one of
// either is an error. Each family has cfg.Reps instances (see
// drawFamilies), drawn before the cells run, so the instances do not
// depend on the worker count.
func Families(cfg Config) (*FamilyResult, error) {
	if len(cfg.Procs) == 0 {
		cfg.Procs = []int{8}
	}
	if len(cfg.CCRs) == 0 {
		cfg.CCRs = []float64{2}
	}
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if len(cfg.Procs) > 1 || len(cfg.CCRs) > 1 {
		return nil, fmt.Errorf("experiment: families run on one machine size and one CCR, not %v and %v", cfg.Procs, cfg.CCRs)
	}
	res := &FamilyResult{}
	for _, a := range cfg.Algorithms {
		res.Algorithms = append(res.Algorithms, a.Name())
	}
	sets, err := drawFamilies(cfg)
	if err != nil {
		return nil, err
	}
	jobs := make([]cellJob, len(sets))
	for i, set := range sets {
		tasks, width := 0, 0
		for _, g := range set.graphs {
			tasks += g.NumTasks()
			width += g.Width()
		}
		n := float64(len(set.graphs))
		res.Rows = append(res.Rows, FamilyRow{
			Family: set.name,
			Tasks:  int(math.Round(float64(tasks) / n)),
			Width:  int(math.Round(float64(width) / n)),
		})
		jobs[i] = cellJob{point: i, instance: func(rep int) (*dag.Graph, *network.Topology) {
			return set.graphs[rep], set.nets[rep]
		}}
	}
	points, err := runCells(cfg, jobs, len(jobs))
	if err != nil {
		return nil, fmt.Errorf("experiment: families: %w", err)
	}
	for i, ms := range points {
		res.Rows[i].BaseMakespan = stats.Summarize(ms[0])
		res.Rows[i].Improvement = improvements(res.Algorithms, ms)
	}
	return res, nil
}

// familySet is one family's instances: graphs[rep] on nets[rep].
type familySet struct {
	name   string
	graphs []*dag.Graph
	nets   []*network.Topology
}

// drawFamilies draws cfg.Reps instances of every family from one rand
// seeded with cfg.Seed, family by family: the family's graph
// (resampled per rep for the random families) rescaled to cfg.CCRs[0],
// on a random cluster of cfg.Procs[0] processors. cfg is resolved.
func drawFamilies(cfg Config) ([]familySet, error) {
	r := rand.New(rand.NewSource(cfg.Seed))
	var sets []familySet
	for _, fam := range familyGenerators(r) {
		set := familySet{name: fam.name}
		for range cfg.Reps {
			g, err := fam.gen().ScaleToCCR(cfg.CCRs[0])
			if err != nil {
				return nil, fmt.Errorf("experiment: families: %s: %w", fam.name, err)
			}
			proc := network.Uniform(1)
			link := network.Uniform(1)
			if cfg.Heterogeneous {
				proc = network.UniformRange(r, 1, 10)
				link = network.UniformRange(r, 1, 10)
			}
			set.graphs = append(set.graphs, g)
			set.nets = append(set.nets, network.RandomCluster(r, network.RandomClusterParams{
				Processors: cfg.Procs[0], ProcSpeed: proc, LinkSpeed: link,
			}))
		}
		sets = append(sets, set)
	}
	return sets, nil
}

// WriteTable renders the family comparison as an aligned text table.
func (r *FamilyResult) WriteTable(w io.Writer) error {
	header := fmt.Sprintf("%-16s %6s %6s %14s", "family", "tasks", "width", "base-makespan")
	for _, name := range r.Algorithms[1:] {
		header += fmt.Sprintf(" %16s", "+"+name+"%")
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(header))); err != nil {
		return err
	}
	for _, row := range r.Rows {
		line := fmt.Sprintf("%-16s %6d %6d %14.1f", row.Family, row.Tasks, row.Width, row.BaseMakespan.Mean)
		for _, name := range r.Algorithms[1:] {
			imp := row.Improvement[name]
			line += fmt.Sprintf(" %9.1f ±%5.1f", imp.Mean, imp.CI95())
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
