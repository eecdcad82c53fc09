// Command bench is the repository's end-to-end benchmark. It generates
// each workload's inputs from a seed, drives the real paths — the
// edgeschedd daemon over loopback HTTP, and one-shot
// sched.ListScheduler.Schedule in process — checks every output, and
// prints the metrics as JSON: an info line, then a result line with
// every metric's name, unit and value. With -trace 1 it instead makes
// a shorter traced run that reports the per-layer metrics. See
// README.md for the workloads and for which layer metric should move
// which end-to-end metric.
//
// Usage, from the repository root (run.sh keeps the Go caches inside
// the checkout and builds this program first):
//
//	bash bench/run.sh -workload serve_small -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -compare A.jsonl B.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/stats"
)

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median.
const setupRepeats = 5

// errIncorrect reports a run whose outputs failed a check; its result
// has been printed.
var errIncorrect = errors.New("outputs failed the correctness checks")

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string // directory for the daemon binary, run files and traces
}

// outcome is what a run prints.
type outcome struct {
	info runInfo
	res  result
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, in order)")
		seed    = flag.Int64("seed", 1, "input generation seed")
		seconds = flag.Int("seconds", 10, "measured duration of one run, in seconds")
		traced  = flag.Int("trace", 0, "1 makes the shorter traced run that reports the per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for the daemon binary, run files and traces")
		cmp     = flag.Bool("compare", false, "compare two files of run outputs: -compare A B")
		specF   = flag.String("spec", "BENCHMARK.json", "benchmark definition that holds the bounds -compare applies")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var err error
	switch {
	case *cmp && flag.NArg() == 2:
		err = compare(os.Stdout, *specF, flag.Arg(0), flag.Arg(1))
	case *cmp:
		err = errors.New("-compare takes two files of run outputs")
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	case *seconds < 1:
		err = errors.New("-seconds must be at least 1")
	case *traced != 0 && *traced != 1:
		err = errors.New("-trace takes 0 or 1")
	default:
		err = run(ctx, *name, config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1, out: *out})
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run runs the named workload, or all of them, printing each run's
// info and result lines.
func run(ctx context.Context, name string, cfg config) error {
	todo := workloads
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		todo = []spec{w}
	}
	var err error
	if cfg.out, err = filepath.Abs(cfg.out); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	incorrect := false
	for _, w := range todo {
		o, err := runWorkload(ctx, cfg, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := printJSON(o.info); err != nil {
			return err
		}
		if err := printJSON(o.res); err != nil {
			return err
		}
		incorrect = incorrect || !o.res.Correct
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// runWorkload generates the workload's inputs and makes one run.
func runWorkload(ctx context.Context, cfg config, w spec) (outcome, error) {
	in, err := generate(w, cfg.seed)
	if err != nil {
		return outcome{}, err
	}
	if w.serving() {
		return runServe(ctx, cfg, w, in)
	}
	return runBatch(ctx, cfg, w, in)
}

// newOutcome starts a run's report.
func newOutcome(w spec, cfg config, digest string) outcome {
	return outcome{info: runInfo{
		Workload:       w.name,
		Seed:           cfg.seed,
		Trace:          cfg.trace,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NProc:          runtime.NumCPU(),
		ScheduleDigest: digest,
	}}
}

// finish completes the result line from the measured metrics.
func (o *outcome) finish(m *metricSet) error {
	vals, err := m.complete()
	if err != nil {
		return err
	}
	o.res.Metrics = vals
	o.res.Correct = o.res.Failed == 0 && o.res.Attempted > 0
	return nil
}

// fail counts one failed operation and reports the first few.
func (o *outcome) fail(err error) {
	o.res.Failed++
	if o.res.Failed <= 3 {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.info.Workload, err)
	}
}

// setE2E records the end-to-end metrics from latency samples (ms),
// successful operations over busy time, and set-up times (s).
func setE2E(m *metricSet, lats []float64, busy time.Duration, setups []float64) {
	m.set("throughput_sps", float64(len(lats))/busy.Seconds())
	m.set("latency_p50_ms", stats.Percentile(lats, 50))
	m.set("latency_p95_ms", stats.Percentile(lats, 95))
	m.set("setup_s", stats.Median(setups))
}

// buildDaemon builds edgeschedd from the checkout's source into dir.
func buildDaemon(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "edgeschedd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/edgeschedd")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building edgeschedd: %w", err)
	}
	return bin, nil
}
