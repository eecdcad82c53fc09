package experiment

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
)

// tiny returns a config small enough for unit tests.
func tiny() Config {
	return Config{
		Reps:     2,
		Seed:     7,
		MinTasks: 30,
		MaxTasks: 40,
		Procs:    []int{4},
		CCRs:     []float64{1, 5},
		Verify:   true,
	}
}

func TestFigureNumbers(t *testing.T) {
	for n := 1; n <= 4; n++ {
		sw, err := Figure(n, tiny())
		if err != nil {
			t.Fatalf("figure %d: %v", n, err)
		}
		if sw.Label == "" || sw.Title == "" {
			t.Errorf("figure %d: missing labels", n)
		}
		wantHetero := n >= 3
		_ = wantHetero
		wantX := "CCR"
		wantPoints := 2
		if n == 2 || n == 4 {
			wantX = "processors"
			wantPoints = 1
		}
		if sw.XLabel != wantX {
			t.Errorf("figure %d: x-label %q, want %q", n, sw.XLabel, wantX)
		}
		if len(sw.Points) != wantPoints {
			t.Errorf("figure %d: %d points, want %d", n, len(sw.Points), wantPoints)
		}
		for _, pt := range sw.Points {
			if pt.BaseMakespan.N == 0 || pt.BaseMakespan.Mean <= 0 {
				t.Errorf("figure %d: empty base summary at x=%v", n, pt.X)
			}
			for _, name := range sw.Algorithms[1:] {
				if pt.Improvement[name].N == 0 {
					t.Errorf("figure %d: no improvements for %s", n, name)
				}
			}
		}
	}
	if _, err := Figure(5, tiny()); err == nil {
		t.Fatal("figure 5 accepted")
	}
}

func TestFigureDeterministic(t *testing.T) {
	a, err := Figure(1, tiny())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure(1, tiny())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i].BaseMakespan.Mean != b.Points[i].BaseMakespan.Mean {
			t.Fatal("same config produced different results")
		}
	}
}

func TestSweepTableAndCSV(t *testing.T) {
	sw, err := Figure(1, tiny())
	if err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if err := sw.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	out := table.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "OIHSA") {
		t.Errorf("table output %q", out)
	}
	var csv bytes.Buffer
	if err := sw.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(sw.Points) {
		t.Fatalf("csv rows %d, want %d", len(lines), 1+len(sw.Points))
	}
	if !strings.HasPrefix(lines[0], "CCR,base_mean_makespan,improvement_OIHSA_pct") {
		t.Errorf("csv header %q", lines[0])
	}
	for _, l := range lines[1:] {
		if len(strings.Split(l, ",")) != len(strings.Split(lines[0], ",")) {
			t.Errorf("ragged csv row %q", l)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	cfg := tiny()
	cfg.CCRs = []float64{2}
	for _, name := range AblationNames() {
		res, err := Ablation(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Algorithms) < 2 {
			t.Errorf("%s: fewer than two variants", name)
		}
		for _, a := range res.Algorithms {
			if res.MeanMakespan[a] <= 0 {
				t.Errorf("%s: empty makespan for %s", name, a)
			}
		}
		var buf bytes.Buffer
		if err := res.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), res.Algorithms[0]) {
			t.Errorf("%s: table missing reference row", name)
		}
	}
	if _, err := Ablation("nope", cfg); err == nil {
		t.Fatal("unknown ablation accepted")
	}
}

func TestCustomAlgorithmsInSweep(t *testing.T) {
	cfg := tiny()
	cfg.Algorithms = []sched.Algorithm{sched.NewBA(), sched.NewBASinnen()}
	sw, err := CCRSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Algorithms) != 2 || sw.Algorithms[1] != "BA-EFT" {
		t.Fatalf("algorithms %v", sw.Algorithms)
	}
	// The strong baseline should never lose to BA on average by much;
	// mostly it wins.
	for _, pt := range sw.Points {
		if pt.Improvement["BA-EFT"].Mean < -20 {
			t.Errorf("BA-EFT unexpectedly terrible at x=%v: %+v", pt.X, pt.Improvement["BA-EFT"])
		}
	}
}

func TestParallelEqualsSerial(t *testing.T) {
	cfg := tiny()
	cfg.Procs = []int{2, 4}
	cfg.CCRs = []float64{0.5, 2, 8}
	serial := cfg
	serial.Workers = 1
	parallel := cfg
	parallel.Workers = 8
	a, err := CCRSweep(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CCRSweep(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ")
	}
	for i := range a.Points {
		if a.Points[i].BaseMakespan != b.Points[i].BaseMakespan {
			t.Fatalf("point %d base differs: %+v vs %+v", i, a.Points[i].BaseMakespan, b.Points[i].BaseMakespan)
		}
		for name, imp := range a.Points[i].Improvement {
			if b.Points[i].Improvement[name] != imp {
				t.Fatalf("point %d improvement for %s differs", i, name)
			}
		}
	}
}

func TestPaperConfigShape(t *testing.T) {
	cfg := PaperConfig(true)
	if !cfg.Heterogeneous {
		t.Error("hetero flag lost")
	}
	if len(cfg.CCRs) != 19 || len(cfg.Procs) != 7 {
		t.Errorf("paper sweep sizes: %d ccrs, %d procs", len(cfg.CCRs), len(cfg.Procs))
	}
	if cfg.MinTasks != 40 || cfg.MaxTasks != 1000 {
		t.Errorf("paper task bounds %d-%d", cfg.MinTasks, cfg.MaxTasks)
	}
}

func TestFamilies(t *testing.T) {
	res, err := Families(FamilyConfig{Processors: 4, Reps: 1, Seed: 3, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 10 {
		t.Fatalf("only %d families", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Tasks <= 0 || row.Width <= 0 || row.BaseMakespan.Mean <= 0 {
			t.Errorf("family %s has empty results: %+v", row.Family, row)
		}
		for _, name := range res.Algorithms[1:] {
			if row.Improvement[name].N == 0 {
				t.Errorf("family %s missing improvements for %s", row.Family, name)
			}
		}
	}
	var buf bytes.Buffer
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fft") {
		t.Error("family table incomplete")
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the regression test for
// the runner's determinism contract: instance seeds depend only on
// (Seed, procs, ccr, rep) and results are indexed by job order, so a
// serial run and a maximally parallel run must produce identical
// sweeps. Run under -race in CI, this also shakes out data races in
// the worker pool.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, run := range []struct {
		name  string
		sweep func(Config) (*Sweep, error)
	}{
		{"ccr", CCRSweep},
		{"proc", ProcSweep},
	} {
		t.Run(run.name, func(t *testing.T) {
			serialCfg := tiny()
			serialCfg.Workers = 1
			parallelCfg := tiny()
			parallelCfg.Workers = 8

			serial, err := run.sweep(serialCfg)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := run.sweep(parallelCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("Workers=1 and Workers=8 disagree:\n%#v\n%#v", serial, parallel)
			}
		})
	}
}
