// Package experiment regenerates the paper's evaluation (§6): the four
// figures comparing OIHSA and BBSA against BA over CCR and machine-size
// sweeps in homogeneous and heterogeneous systems, plus the ablations
// of DESIGN.md. Results are aggregated as per-instance improvement
// percentages exactly as the paper plots them:
// 100 * (makespan(BA) - makespan(X)) / makespan(BA).
package experiment

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/verify"
	"repro/internal/workload"
)

// Config is the one configuration of an experiment: a figure, an
// ablation, a family comparison or a suite entry. The zero value is
// filled with reduced but representative defaults; Full (or
// PaperConfig) selects the full §6 setup. Zero fields are filled and
// axes checked in one place, resolve, when a run starts.
type Config struct {
	// Full fills every zero field with its PaperConfig value instead
	// of the reduced default; a zero Seed becomes the paper's.
	Full bool `json:"full,omitempty"`
	// Reps is the number of random instances per cell: per (procs,
	// CCR) pair of a figure or ablation, per family of a comparison.
	Reps int `json:"reps,omitempty"`
	// Seed drives instance generation; cell seeds are derived from it.
	Seed int64 `json:"seed,omitempty"`
	// MinTasks/MaxTasks bound the per-instance task count.
	MinTasks int `json:"minTasks,omitempty"`
	MaxTasks int `json:"maxTasks,omitempty"`
	// Procs are the machine sizes: the x-axis of processor sweeps and
	// the averaged-over dimension of CCR sweeps.
	Procs []int `json:"procs,omitempty"`
	// CCRs are the communication-computation ratios: the x-axis of CCR
	// sweeps and the averaged-over dimension of processor sweeps.
	CCRs []float64 `json:"ccrs,omitempty"`
	// Heterogeneous selects U(1,10) speeds (Figures 3 and 4).
	Heterogeneous bool `json:"heterogeneous,omitempty"`
	// Verify runs the schedule verifier on every produced schedule and
	// fails the run on any violation.
	Verify bool `json:"verify,omitempty"`
	// Algorithms are the contenders; the first is the baseline. Nil
	// defaults to [BA, OIHSA, BBSA].
	Algorithms []sched.Algorithm `json:"-"`
	// Workers bounds the number of cells scheduled concurrently. 0
	// uses GOMAXPROCS; 1 forces a serial run. Instances depend only on
	// the cell they belong to, so results are identical at any
	// parallelism.
	Workers int `json:"workers,omitempty"`
}

// resolve is the one place a Config's zero fields are filled in and
// its axes checked. A zero field takes its reduced default, or its
// PaperConfig value with Full; zero Workers become GOMAXPROCS. A
// non-positive processor count or CCR, or MaxTasks below MinTasks, is
// an error: the instance generator would replace it, while the table
// printed the requested value. So is a CCR above workload.MaxCCR,
// which no instance can be rescaled to.
func (c Config) resolve() (Config, error) {
	def := Config{
		Reps:     3,
		MinTasks: 40,
		// A lone MinTasks above 1000 runs exactly MinTasks tasks.
		MaxTasks: max(1000, c.MinTasks),
		Procs:    []int{4, 16},
		CCRs:     []float64{0.5, 2, 8},
	}
	if c.Full {
		def = PaperConfig(c.Heterogeneous)
	}
	if c.Reps <= 0 {
		c.Reps = def.Reps
	}
	if c.Seed == 0 {
		c.Seed = def.Seed
	}
	if c.MinTasks <= 0 {
		c.MinTasks = def.MinTasks
	}
	if c.MaxTasks <= 0 {
		c.MaxTasks = def.MaxTasks
	}
	if len(c.Procs) == 0 {
		c.Procs = def.Procs
	}
	if len(c.CCRs) == 0 {
		c.CCRs = def.CCRs
	}
	if c.Algorithms == nil {
		c.Algorithms = []sched.Algorithm{sched.NewBA(), sched.NewOIHSA(), sched.NewBBSA()}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	for _, p := range c.Procs {
		if p <= 0 {
			return c, fmt.Errorf("experiment: processor count %d is not positive", p)
		}
	}
	for _, ccr := range c.CCRs {
		if ccr <= 0 || ccr > workload.MaxCCR {
			return c, fmt.Errorf("experiment: CCR %g is outside (0, %g]", ccr, workload.MaxCCR)
		}
	}
	if c.MaxTasks < c.MinTasks {
		return c, fmt.Errorf("experiment: max tasks %d below min tasks %d", c.MaxTasks, c.MinTasks)
	}
	return c, nil
}

// PaperConfig returns the full §6 configuration of the paper for the
// given figure's system type: the complete CCR and processor sweeps
// with tasks U(40, 1000). Its fields are the values a Full config's
// zero fields take. It is expensive; the reduced defaults are used by
// tests.
func PaperConfig(heterogeneous bool) Config {
	return Config{
		Reps:          5,
		Seed:          2006,
		MinTasks:      40,
		MaxTasks:      1000,
		Procs:         workload.PaperProcessorCounts(),
		CCRs:          workload.PaperCCRs(),
		Heterogeneous: heterogeneous,
	}
}

// Point is one x-position of a sweep.
type Point struct {
	X float64
	// BaseMakespan summarizes the baseline's makespans at this x.
	BaseMakespan stats.Summary
	// Improvement maps each non-baseline algorithm name to the summary
	// of per-instance improvement percentages over the baseline.
	Improvement map[string]stats.Summary
}

// Sweep is a completed figure: one improvement series per algorithm
// over an x-axis.
type Sweep struct {
	Label      string   // e.g. "Figure 1"
	Title      string   // human description
	XLabel     string   // "CCR" or "processors"
	Algorithms []string // series names, baseline first
	Points     []Point
	Instances  int // total instances scheduled
}

// cellJob is one cell of a run: the point of the x-axis (or the table
// row) it is aggregated at, and its instances, the rep-th of which
// instance(rep) returns.
type cellJob struct {
	point    int
	instance func(rep int) (*dag.Graph, *network.Topology)
}

// sweepCell is the cell of machine size procs and CCR ccr. Its
// instance seeds depend only on (cfg.Seed, procs, ccr, rep), so cells
// can run in any order or concurrently with identical results.
func sweepCell(cfg Config, point, procs int, ccr float64) cellJob {
	return cellJob{point: point, instance: func(rep int) (*dag.Graph, *network.Topology) {
		inst := workload.Generate(workload.Params{
			Processors:    procs,
			CCR:           ccr,
			Heterogeneous: cfg.Heterogeneous,
			MinTasks:      cfg.MinTasks,
			MaxTasks:      cfg.MaxTasks,
			Seed:          cfg.Seed*1000003 + int64(procs)*131 + int64(ccr*10)*7 + int64(rep),
		})
		return inst.Graph, inst.Net
	}}
}

// runCell schedules all algorithms on the cfg.Reps instances of one
// cell and returns their makespans: out[i][rep] is algorithm i's
// makespan on the rep-th instance.
func runCell(cfg Config, job cellJob) ([][]float64, error) {
	out := make([][]float64, len(cfg.Algorithms))
	for rep := 0; rep < cfg.Reps; rep++ {
		g, net := job.instance(rep)
		if err := measure(cfg.Algorithms, g, net, cfg.Verify, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// measure schedules g on net with every algorithm, verifies each
// schedule when check is set, and appends algorithm i's makespan to
// out[i].
func measure(algos []sched.Algorithm, g *dag.Graph, net *network.Topology, check bool, out [][]float64) error {
	for i, a := range algos {
		s, err := a.Schedule(g, net)
		if err == nil && check {
			err = verify.Verify(s).Err()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name(), err)
		}
		out[i] = append(out[i], s.Makespan)
	}
	return nil
}

// improvements summarizes, for every algorithm after the first, its
// per-instance improvement percentages over the first, keyed by name;
// ms[i][k] is algorithm i's makespan on instance k.
func improvements(names []string, ms [][]float64) map[string]stats.Summary {
	out := map[string]stats.Summary{}
	for i := 1; i < len(ms); i++ {
		imp := make([]float64, len(ms[i]))
		for k, m := range ms[i] {
			imp[k] = stats.ImprovementPct(ms[0][k], m)
		}
		out[names[i]] = stats.Summarize(imp)
	}
	return out
}

// runCells evaluates all cells with a bounded worker pool, the one
// runner of figures, ablations and family comparisons, and returns the
// makespans of each point's cells concatenated in job order:
// out[point][i] lists algorithm i's makespans. The result does not
// depend on the worker count.
func runCells(cfg Config, jobs []cellJob, points int) ([][][]float64, error) {
	workers := min(cfg.Workers, len(jobs))
	results := make([][][]float64, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = runCell(cfg, jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([][][]float64, points)
	for p := range out {
		out[p] = make([][]float64, len(cfg.Algorithms))
	}
	for i, job := range jobs {
		for a, ms := range results[i] {
			out[job.point][a] = append(out[job.point][a], ms...)
		}
	}
	return out, nil
}

// sweepOver runs the generic sweep: xs are the x-axis values, and
// each job's point indexes xs.
func sweepOver(cfg Config, xLabel string, xs []float64, jobs []cellJob) (*Sweep, error) {
	sw := &Sweep{XLabel: xLabel}
	for _, a := range cfg.Algorithms {
		sw.Algorithms = append(sw.Algorithms, a.Name())
	}
	points, err := runCells(cfg, jobs, len(xs))
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	for i, x := range xs {
		ms := points[i]
		sw.Points = append(sw.Points, Point{
			X:            x,
			BaseMakespan: stats.Summarize(ms[0]),
			Improvement:  improvements(sw.Algorithms, ms),
		})
		sw.Instances += len(ms[0])
	}
	return sw, nil
}

// CCRSweep produces an improvement-vs-CCR figure (the paper's Figures
// 1 and 3): for each CCR, improvements are averaged over all machine
// sizes in cfg.Procs and all replications. Cells run concurrently up
// to cfg.Workers.
func CCRSweep(cfg Config) (*Sweep, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	var jobs []cellJob
	for i, ccr := range cfg.CCRs {
		for _, procs := range cfg.Procs {
			jobs = append(jobs, sweepCell(cfg, i, procs, ccr))
		}
	}
	return sweepOver(cfg, "CCR", cfg.CCRs, jobs)
}

// ProcSweep produces an improvement-vs-machine-size figure (the
// paper's Figures 2 and 4): for each processor count, improvements are
// averaged over all CCRs in cfg.CCRs and all replications. Cells run
// concurrently up to cfg.Workers.
func ProcSweep(cfg Config) (*Sweep, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(cfg.Procs))
	var jobs []cellJob
	for i, procs := range cfg.Procs {
		xs[i] = float64(procs)
		for _, ccr := range cfg.CCRs {
			jobs = append(jobs, sweepCell(cfg, i, procs, ccr))
		}
	}
	return sweepOver(cfg, "processors", xs, jobs)
}

// Figure regenerates one of the paper's figures (1–4) under the given
// config; pass PaperConfig(...) for the full-scale version. The
// config's Heterogeneous flag is overridden to match the figure.
func Figure(n int, cfg Config) (*Sweep, error) {
	var (
		sw  *Sweep
		err error
	)
	switch n {
	case 1:
		cfg.Heterogeneous = false
		sw, err = CCRSweep(cfg)
	case 2:
		cfg.Heterogeneous = false
		sw, err = ProcSweep(cfg)
	case 3:
		cfg.Heterogeneous = true
		sw, err = CCRSweep(cfg)
	case 4:
		cfg.Heterogeneous = true
		sw, err = ProcSweep(cfg)
	default:
		return nil, fmt.Errorf("experiment: figure %d does not exist (paper has 1-4)", n)
	}
	if err != nil {
		return nil, err
	}
	sw.Label = fmt.Sprintf("Figure %d", n)
	system := "homogeneous"
	if n >= 3 {
		system = "heterogeneous"
	}
	axis := "CCR"
	if n == 2 || n == 4 {
		axis = "number of processors"
	}
	sw.Title = fmt.Sprintf("%% improved makespan vs BA over %s (%s systems)", axis, system)
	return sw, nil
}

// WriteTable renders the sweep as an aligned text table of mean
// improvement percentages (±95% CI).
func (sw *Sweep) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s: %s\n", sw.Label, sw.Title); err != nil {
		return err
	}
	header := fmt.Sprintf("%-12s %14s", sw.XLabel, "base-makespan")
	for _, name := range sw.Algorithms[1:] {
		header += fmt.Sprintf(" %18s", "+"+name+"%")
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(header))); err != nil {
		return err
	}
	for _, pt := range sw.Points {
		row := fmt.Sprintf("%-12.4g %14.1f", pt.X, pt.BaseMakespan.Mean)
		for _, name := range sw.Algorithms[1:] {
			imp := pt.Improvement[name]
			row += fmt.Sprintf(" %11.1f ±%5.1f", imp.Mean, imp.CI95())
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "(%d instances)\n", sw.Instances)
	return err
}

// WriteCSV renders the sweep as CSV with one row per x-position.
func (sw *Sweep) WriteCSV(w io.Writer) error {
	cols := []string{sw.XLabel, "base_mean_makespan"}
	for _, name := range sw.Algorithms[1:] {
		cols = append(cols, "improvement_"+name+"_pct", "improvement_"+name+"_ci95")
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, pt := range sw.Points {
		row := []string{
			fmt.Sprintf("%g", pt.X),
			fmt.Sprintf("%.3f", pt.BaseMakespan.Mean),
		}
		for _, name := range sw.Algorithms[1:] {
			imp := pt.Improvement[name]
			row = append(row, fmt.Sprintf("%.3f", imp.Mean), fmt.Sprintf("%.3f", imp.CI95()))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
