// Command edgesim regenerates the paper's evaluation — the four
// figures (improvement of OIHSA/BBSA over BA vs CCR and vs machine
// size, in homogeneous and heterogeneous systems) and the ablation
// studies listed in DESIGN.md — and inspects single task graphs,
// topologies and schedules.
//
// Usage:
//
//	edgesim -figure 1                 # reduced-scale Figure 1
//	edgesim -figure 3 -full           # full paper-scale Figure 3
//	edgesim -ablation routing         # A1 ablation
//	edgesim -ablation league          # every scheduler against BA
//	edgesim -all                      # all four figures
//	edgesim -figure 2 -csv            # machine-readable output
//
//	edgesim dag -kind fft -size 3 -dot > fft.dot
//	edgesim net -kind cluster -procs 32
//	edgesim schedule -algo bbsa -procs 8 -ccr 2 -tasks 60 -links
//
// Reduced-scale defaults finish in seconds; -full runs the complete
// §6 sweeps (minutes). Each subcommand has its own flags; see
// edgesim dag|net|schedule -h.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiment"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "edgesim:", err)
		os.Exit(1)
	}
}

// errUsage reports a command line its flag set has already rejected
// with a usage message; main exits 2 on it.
var errUsage = errors.New("usage")

// parse parses args into fs, mapping a rejected command line to
// errUsage. -h stays flag.ErrHelp.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// run is the whole command: a first argument of dag, net or schedule
// selects that subcommand; otherwise args are the evaluation flags.
func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "dag":
			return runDAG(args[1:], stdout)
		case "net":
			return runNet(args[1:], stdout)
		case "schedule":
			return runSchedule(args[1:], stdout)
		}
		return fmt.Errorf("unknown subcommand %q (valid: dag, net, schedule)", args[0])
	}
	return evaluate(args, stdout)
}

// evaluate runs a figure, ablation, suite or family comparison.
func evaluate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("edgesim", flag.ContinueOnError)
	var cfg experiment.Config
	var (
		figure   = fs.Int("figure", 0, "paper figure to regenerate (1-4)")
		all      = fs.Bool("all", false, "regenerate all four figures")
		ablation = fs.String("ablation", "", "ablation to run: "+strings.Join(experiment.AblationNames(), ", "))
		suite    = fs.String("suite", "", "run a whole campaign from a JSON suite file")
		outDir   = fs.String("out", "results", "output directory for -suite")
		families = fs.Bool("families", false, "compare the algorithms per structured DAG family (one -procs and one -ccrs value; default 8 and 2)")
		procs    = fs.String("procs", "", "comma-separated processor counts (overrides default)")
		ccrs     = fs.String("ccrs", "", "comma-separated CCR values (overrides default)")
		csv      = fs.Bool("csv", false, "emit CSV instead of a text table")
	)
	fs.BoolVar(&cfg.Full, "full", false, "full paper-scale sweep (slow) instead of reduced defaults")
	fs.IntVar(&cfg.Reps, "reps", 0, "replications per sweep cell (0 = default)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "base random seed (0 = default: the paper's with -full)")
	fs.IntVar(&cfg.MinTasks, "min-tasks", 0, "minimum tasks per instance (0 = default)")
	fs.IntVar(&cfg.MaxTasks, "max-tasks", 0, "maximum tasks per instance (0 = default)")
	fs.BoolVar(&cfg.Heterogeneous, "hetero", false, "heterogeneous speeds for ablations and families (figures fix this themselves)")
	fs.BoolVar(&cfg.Verify, "verify", false, "verify every produced schedule (slower)")
	fs.IntVar(&cfg.Workers, "workers", 0, "concurrent cells of a figure, ablation or family comparison (0 = GOMAXPROCS, 1 = serial)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: edgesim [flags], or edgesim dag|net|schedule [flags] (-h lists each one's flags)")
		fs.PrintDefaults()
	}
	if err := parse(fs, args); err != nil {
		return err
	}
	var err error
	if cfg.Procs, err = parseList(*procs, strconv.Atoi); err != nil {
		return err
	}
	if cfg.CCRs, err = parseList(*ccrs, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }); err != nil {
		return err
	}

	switch {
	case *families:
		res, err := experiment.Families(cfg)
		if err != nil {
			return err
		}
		return res.WriteTable(stdout)
	case *suite != "":
		f, err := os.Open(*suite)
		if err != nil {
			return err
		}
		spec, err := experiment.LoadSuite(f)
		f.Close()
		if err != nil {
			return err
		}
		return experiment.RunSuite(spec, *outDir, stdout)
	case *ablation != "":
		res, err := experiment.Ablation(*ablation, cfg)
		if err != nil {
			return err
		}
		return res.WriteTable(stdout)
	case *all:
		for n := 1; n <= 4; n++ {
			if err := runFigure(stdout, n, cfg, *csv); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		return nil
	case *figure >= 1 && *figure <= 4:
		return runFigure(stdout, *figure, cfg, *csv)
	}
	fs.Usage()
	return errUsage
}

func runFigure(w io.Writer, n int, cfg experiment.Config, csv bool) error {
	sw, err := experiment.Figure(n, cfg)
	if err != nil {
		return err
	}
	if csv {
		return sw.WriteCSV(w)
	}
	return sw.WriteTable(w)
}

// parseList parses a comma-separated flag value; "" is an empty list.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad list value %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}
