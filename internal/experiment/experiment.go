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

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/verify"
	"repro/internal/workload"
)

// Config controls a sweep run. The zero value is filled with reduced
// but representative defaults; use PaperConfig for the full §6 setup.
type Config struct {
	// Reps is the number of random instances per sweep cell.
	Reps int
	// Seed drives instance generation; cell seeds are derived from it.
	Seed int64
	// MinTasks/MaxTasks bound the per-instance task count.
	MinTasks, MaxTasks int
	// Procs are the machine sizes: the x-axis of processor sweeps and
	// the averaged-over dimension of CCR sweeps.
	Procs []int
	// CCRs are the communication-computation ratios: the x-axis of CCR
	// sweeps and the averaged-over dimension of processor sweeps.
	CCRs []float64
	// Heterogeneous selects U(1,10) speeds (Figures 3 and 4).
	Heterogeneous bool
	// Verify runs the schedule verifier on every produced schedule and
	// fails the sweep on any violation.
	Verify bool
	// Algorithms are the contenders; the first is the baseline. Nil
	// defaults to [BA, OIHSA, BBSA].
	Algorithms []sched.Algorithm
	// Workers bounds the number of sweep cells scheduled concurrently.
	// 0 uses GOMAXPROCS; 1 forces a serial run. Instance seeds are
	// derived from cell coordinates, so results are identical at any
	// parallelism.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.MinTasks <= 0 {
		c.MinTasks = 40
	}
	if c.MaxTasks < c.MinTasks {
		c.MaxTasks = 1000
	}
	if len(c.Procs) == 0 {
		c.Procs = []int{4, 16}
	}
	if len(c.CCRs) == 0 {
		c.CCRs = []float64{0.5, 2, 8}
	}
	if c.Algorithms == nil {
		c.Algorithms = []sched.Algorithm{sched.NewBA(), sched.NewOIHSA(), sched.NewBBSA()}
	}
	return c
}

// PaperConfig returns the full §6 configuration of the paper for the
// given figure's system type: the complete CCR and processor sweeps
// with tasks U(40, 1000). It is expensive; the reduced defaults are
// used by tests.
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

// cellResult holds the measurements of one (procs, ccr) sweep cell.
type cellResult struct {
	base []float64            // baseline makespans, one per rep
	imp  map[string][]float64 // per-algorithm improvement percentages
}

// runCell schedules all algorithms on the instances of one sweep cell.
// The instance seeds depend only on (cfg.Seed, procs, ccr, rep), so
// cells can run in any order or concurrently with identical results.
func runCell(cfg Config, procs int, ccr float64) (cellResult, error) {
	baseline := cfg.Algorithms[0]
	res := cellResult{imp: map[string][]float64{}}
	for rep := 0; rep < cfg.Reps; rep++ {
		seed := cfg.Seed
		seed = seed*1000003 + int64(procs)*131 + int64(ccr*10)*7 + int64(rep)
		inst := workload.Generate(workload.Params{
			Processors:    procs,
			CCR:           ccr,
			Heterogeneous: cfg.Heterogeneous,
			MinTasks:      cfg.MinTasks,
			MaxTasks:      cfg.MaxTasks,
			Seed:          seed,
		})
		bs, err := baseline.Schedule(inst.Graph, inst.Net)
		if err != nil {
			return res, fmt.Errorf("experiment: %s: %w", baseline.Name(), err)
		}
		if cfg.Verify {
			if err := verify.Verify(bs).Err(); err != nil {
				return res, fmt.Errorf("experiment: %s: %w", baseline.Name(), err)
			}
		}
		res.base = append(res.base, bs.Makespan)
		for _, a := range cfg.Algorithms[1:] {
			s, err := a.Schedule(inst.Graph, inst.Net)
			if err != nil {
				return res, fmt.Errorf("experiment: %s: %w", a.Name(), err)
			}
			if cfg.Verify {
				if err := verify.Verify(s).Err(); err != nil {
					return res, fmt.Errorf("experiment: %s: %w", a.Name(), err)
				}
			}
			res.imp[a.Name()] = append(res.imp[a.Name()], stats.ImprovementPct(bs.Makespan, s.Makespan))
		}
	}
	return res, nil
}

// cellJob identifies one cell and the x-point it belongs to.
type cellJob struct {
	point int // index into the sweep's x-axis
	procs int
	ccr   float64
}

// runCells evaluates all cells with a bounded worker pool and returns
// their results grouped by x-point, in deterministic order.
func runCells(cfg Config, jobs []cellJob, points int) ([][]cellResult, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]cellResult, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = runCell(cfg, jobs[i].procs, jobs[i].ccr)
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
	grouped := make([][]cellResult, points)
	for i, job := range jobs {
		grouped[job.point] = append(grouped[job.point], results[i])
	}
	return grouped, nil
}

// sweepOver runs the generic sweep: xs are the x-axis values, and
// cells(xIdx) lists the (procs, ccr) cells aggregated at that point.
func sweepOver(cfg Config, xLabel string, xs []float64, cells func(i int) []cellJob) (*Sweep, error) {
	sw := &Sweep{XLabel: xLabel}
	for _, a := range cfg.Algorithms {
		sw.Algorithms = append(sw.Algorithms, a.Name())
	}
	var jobs []cellJob
	for i := range xs {
		jobs = append(jobs, cells(i)...)
	}
	grouped, err := runCells(cfg, jobs, len(xs))
	if err != nil {
		return nil, err
	}
	for i, x := range xs {
		var base []float64
		acc := map[string][]float64{}
		for _, cell := range grouped[i] {
			base = append(base, cell.base...)
			for name, vs := range cell.imp {
				acc[name] = append(acc[name], vs...)
			}
		}
		pt := Point{X: x, BaseMakespan: stats.Summarize(base), Improvement: map[string]stats.Summary{}}
		for name, vs := range acc {
			pt.Improvement[name] = stats.Summarize(vs)
		}
		sw.Points = append(sw.Points, pt)
		sw.Instances += len(base)
	}
	return sw, nil
}

// CCRSweep produces an improvement-vs-CCR figure (the paper's Figures
// 1 and 3): for each CCR, improvements are averaged over all machine
// sizes in cfg.Procs and all replications. Cells run concurrently up
// to cfg.Workers.
func CCRSweep(cfg Config) (*Sweep, error) {
	cfg = cfg.withDefaults()
	return sweepOver(cfg, "CCR", cfg.CCRs, func(i int) []cellJob {
		var out []cellJob
		for _, procs := range cfg.Procs {
			out = append(out, cellJob{point: i, procs: procs, ccr: cfg.CCRs[i]})
		}
		return out
	})
}

// ProcSweep produces an improvement-vs-machine-size figure (the
// paper's Figures 2 and 4): for each processor count, improvements are
// averaged over all CCRs in cfg.CCRs and all replications. Cells run
// concurrently up to cfg.Workers.
func ProcSweep(cfg Config) (*Sweep, error) {
	cfg = cfg.withDefaults()
	xs := make([]float64, len(cfg.Procs))
	for i, p := range cfg.Procs {
		xs[i] = float64(p)
	}
	return sweepOver(cfg, "processors", xs, func(i int) []cellJob {
		var out []cellJob
		for _, ccr := range cfg.CCRs {
			out = append(out, cellJob{point: i, procs: cfg.Procs[i], ccr: ccr})
		}
		return out
	})
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
