package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/stats"
)

// FamilyConfig controls the per-DAG-family comparison: the same
// machine and the same algorithms, one series per structured graph
// family, so structure-dependent effects become visible.
type FamilyConfig struct {
	// Processors is the machine size (default 8).
	Processors int
	// Heterogeneous selects U(1,10) speeds.
	Heterogeneous bool
	// CCR rescales every family instance (default 2).
	CCR float64
	// Reps is the number of machine samples per family (default 3);
	// the graphs themselves are deterministic per family except the
	// random families, which resample per rep.
	Reps int
	// Seed drives machine generation and the random families.
	Seed int64
	// Verify runs the model checker on every schedule.
	Verify bool
	// Algorithms are the contenders; the first is the baseline. Nil
	// defaults to [BA, OIHSA, BBSA].
	Algorithms []sched.Algorithm
}

func (c FamilyConfig) withDefaults() FamilyConfig {
	if c.Processors <= 0 {
		c.Processors = 8
	}
	if c.CCR <= 0 {
		c.CCR = 2
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Algorithms == nil {
		c.Algorithms = []sched.Algorithm{sched.NewBA(), sched.NewOIHSA(), sched.NewBBSA()}
	}
	return c
}

// FamilyRow is one family's aggregated result.
type FamilyRow struct {
	Family string
	Tasks  int
	Width  int
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

// Families runs the per-family comparison. It runs sequentially: one
// rand draws every random graph and machine in turn, so the instances
// depend on the order they are generated in.
func Families(cfg FamilyConfig) (*FamilyResult, error) {
	cfg = cfg.withDefaults()
	res := &FamilyResult{}
	for _, a := range cfg.Algorithms {
		res.Algorithms = append(res.Algorithms, a.Name())
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	for _, fam := range familyGenerators(r) {
		row := FamilyRow{Family: fam.name}
		ms := make([][]float64, len(cfg.Algorithms))
		for rep := 0; rep < cfg.Reps; rep++ {
			g, err := fam.gen().ScaleToCCR(cfg.CCR)
			if err != nil {
				return nil, fmt.Errorf("experiment: families: %s: %w", fam.name, err)
			}
			row.Tasks = g.NumTasks()
			row.Width = g.Width()
			proc := network.Uniform(1)
			link := network.Uniform(1)
			if cfg.Heterogeneous {
				proc = network.UniformRange(r, 1, 10)
				link = network.UniformRange(r, 1, 10)
			}
			net := network.RandomCluster(r, network.RandomClusterParams{
				Processors: cfg.Processors, ProcSpeed: proc, LinkSpeed: link,
			})
			if err := measure(cfg.Algorithms, g, net, cfg.Verify, ms); err != nil {
				return nil, fmt.Errorf("experiment: families: %s: %w", fam.name, err)
			}
		}
		row.BaseMakespan = stats.Summarize(ms[0])
		row.Improvement = improvements(res.Algorithms, ms)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
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
