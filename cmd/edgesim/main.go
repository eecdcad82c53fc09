// Command edgesim regenerates the paper's evaluation: the four figures
// (improvement of OIHSA/BBSA over BA vs CCR and vs machine size, in
// homogeneous and heterogeneous systems) and the ablation studies
// listed in DESIGN.md.
//
// Usage:
//
//	edgesim -figure 1                 # reduced-scale Figure 1
//	edgesim -figure 3 -full           # full paper-scale Figure 3
//	edgesim -ablation routing         # A1 ablation
//	edgesim -all                      # all four figures
//	edgesim -figure 2 -csv            # machine-readable output
//
// Reduced-scale defaults finish in seconds; -full runs the complete
// §6 sweeps (minutes).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiment"
)

func main() {
	var (
		figure   = flag.Int("figure", 0, "paper figure to regenerate (1-4)")
		all      = flag.Bool("all", false, "regenerate all four figures")
		ablation = flag.String("ablation", "", "ablation to run: "+strings.Join(experiment.AblationNames(), ", "))
		suite    = flag.String("suite", "", "run a whole campaign from a JSON suite file")
		outDir   = flag.String("out", "results", "output directory for -suite")
		families = flag.Bool("families", false, "compare the algorithms per structured DAG family")
		full     = flag.Bool("full", false, "full paper-scale sweep (slow) instead of reduced defaults")
		reps     = flag.Int("reps", 0, "replications per sweep cell (0 = default)")
		seed     = flag.Int64("seed", 1, "base random seed")
		procs    = flag.String("procs", "", "comma-separated processor counts (overrides default)")
		ccrs     = flag.String("ccrs", "", "comma-separated CCR values (overrides default)")
		minTasks = flag.Int("min-tasks", 0, "minimum tasks per instance (0 = default)")
		maxTasks = flag.Int("max-tasks", 0, "maximum tasks per instance (0 = default)")
		hetero   = flag.Bool("hetero", false, "heterogeneous speeds for ablations (figures fix this themselves)")
		doVerify = flag.Bool("verify", false, "verify every produced schedule (slower)")
		csv      = flag.Bool("csv", false, "emit CSV instead of a text table")
		workers  = flag.Int("workers", 0, "concurrent sweep cells (0 = GOMAXPROCS, 1 = serial)")
	)
	flag.Parse()

	cfg := experiment.Config{Seed: *seed, Heterogeneous: *hetero, Verify: *doVerify}
	if *full {
		cfg = experiment.PaperConfig(*hetero)
		cfg.Seed = *seed
		cfg.Verify = *doVerify
	}
	cfg.Workers = *workers
	if *reps > 0 {
		cfg.Reps = *reps
	}
	if *minTasks > 0 {
		cfg.MinTasks = *minTasks
	}
	if *maxTasks > 0 {
		cfg.MaxTasks = *maxTasks
	}
	var err error
	if cfg.Procs, err = parseInts(*procs, cfg.Procs); err != nil {
		fatal(err)
	}
	if cfg.CCRs, err = parseFloats(*ccrs, cfg.CCRs); err != nil {
		fatal(err)
	}

	switch {
	case *families:
		procs := 8
		if len(cfg.Procs) > 0 {
			procs = cfg.Procs[0]
		}
		ccr := 2.0
		if len(cfg.CCRs) > 0 {
			ccr = cfg.CCRs[0]
		}
		res, err := experiment.Families(experiment.FamilyConfig{
			Processors:    procs,
			Heterogeneous: cfg.Heterogeneous,
			CCR:           ccr,
			Reps:          cfg.Reps,
			Seed:          cfg.Seed,
			Verify:        cfg.Verify,
		})
		if err != nil {
			fatal(err)
		}
		if err := res.WriteTable(os.Stdout); err != nil {
			fatal(err)
		}
	case *suite != "":
		f, err := os.Open(*suite)
		if err != nil {
			fatal(err)
		}
		spec, err := experiment.LoadSuite(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if err := experiment.RunSuite(spec, *outDir, os.Stdout); err != nil {
			fatal(err)
		}
	case *ablation != "":
		res, err := experiment.Ablation(*ablation, cfg)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteTable(os.Stdout); err != nil {
			fatal(err)
		}
	case *all:
		for n := 1; n <= 4; n++ {
			if err := runFigure(n, cfg, *csv); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
	case *figure >= 1 && *figure <= 4:
		if err := runFigure(*figure, cfg, *csv); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runFigure(n int, cfg experiment.Config, csv bool) error {
	sw, err := experiment.Figure(n, cfg)
	if err != nil {
		return err
	}
	if csv {
		return sw.WriteCSV(os.Stdout)
	}
	return sw.WriteTable(os.Stdout)
}

func parseInts(s string, def []int) ([]int, error) {
	if s == "" {
		return def, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string, def []float64) ([]float64, error) {
	if s == "" {
		return def, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "edgesim:", err)
	os.Exit(1)
}
