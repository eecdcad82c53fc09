package experiment

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"regexp"
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
	res, err := Families(Config{Procs: []int{4}, Reps: 1, Seed: 3, Verify: true})
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

// TestFamilyRowsAverageTheirInstances pins that a family row reports
// the instances it ran: its task count and width are the means over
// its reps, rounded, though the random families draw a new graph per
// rep.
func TestFamilyRowsAverageTheirInstances(t *testing.T) {
	cfg, err := Config{Procs: []int{4}, CCRs: []float64{2}, Reps: 3, Seed: 3}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Families(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := drawFamilies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	for i, set := range sets {
		tasks, width := 0.0, 0.0
		for _, g := range set.graphs {
			tasks += float64(g.NumTasks())
			width += float64(g.Width())
		}
		row := res.Rows[i]
		want := FamilyRow{Family: set.name, Tasks: int(math.Round(tasks / 3)), Width: int(math.Round(width / 3))}
		if row.Family != want.Family || row.Tasks != want.Tasks || row.Width != want.Width {
			t.Errorf("row %s: tasks %d width %d, its instances average %d and %d",
				row.Family, row.Tasks, row.Width, want.Tasks, want.Width)
		}
		last := set.graphs[len(set.graphs)-1]
		varied = varied || last.NumTasks() != want.Tasks || last.Width() != want.Width
	}
	if !varied {
		t.Fatal("every family's last instance matches its mean: the check cannot tell them apart")
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the regression test for
// the runner's determinism contract: a cell's instances depend only on
// the cell (sweep seeds on (Seed, procs, ccr, rep); family instances
// are drawn before the cells run) and results are indexed by job
// order, so a serial run and a maximally parallel run must produce
// identical figures, ablations and family tables. Run under -race in
// CI, this also shakes out data races in the worker pool and in
// schedulers shared across cells.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	wide := tiny()
	wide.Procs = []int{2, 4}
	wide.CCRs = []float64{0.5, 2, 8}
	for _, run := range []struct {
		name string
		cfg  Config
		run  func(Config) (any, error)
	}{
		{"ccr", tiny(), func(c Config) (any, error) { return CCRSweep(c) }},
		{"proc", tiny(), func(c Config) (any, error) { return ProcSweep(c) }},
		{"ccr-wide", wide, func(c Config) (any, error) { return CCRSweep(c) }},
		{"ablation", wide, func(c Config) (any, error) { return Ablation("league", c) }},
		{"families", Config{Reps: 2, Seed: 3, Verify: true}, func(c Config) (any, error) { return Families(c) }},
	} {
		t.Run(run.name, func(t *testing.T) {
			serialCfg := run.cfg
			serialCfg.Workers = 1
			parallelCfg := run.cfg
			parallelCfg.Workers = 8

			serial, err := run.run(serialCfg)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := run.run(parallelCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("Workers=1 and Workers=8 disagree:\n%#v\n%#v", serial, parallel)
			}
		})
	}
}

// TestAblationsReproduceResults reruns every section of
// results_ablations.txt, headed "=== <ablation> (<system>) ===", with
// the config of the command EXPERIMENTS.md documents for it, and
// requires the table to match the section byte for byte. It guards
// the reported numbers and, with them, the extension paths no
// benchmark digest covers: packets, store-and-forward, hop delay,
// duplication, task insertion and priority schemes.
func TestAblationsReproduceResults(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every reported ablation")
	}
	data, err := os.ReadFile("../../results_ablations.txt")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	headers := regexp.MustCompile(`(?m)^=== (\S+) \((homogeneous|heterogeneous)\) ===\n`).FindAllStringSubmatchIndex(text, -1)
	if len(headers) == 0 {
		t.Fatal("results_ablations.txt has no sections")
	}
	for i, h := range headers {
		name, system := text[h[2]:h[3]], text[h[4]:h[5]]
		end := len(text)
		if i+1 < len(headers) {
			end = headers[i+1][0]
		}
		want := strings.TrimRight(text[h[1]:end], "\n") + "\n"
		t.Run(name+"/"+system, func(t *testing.T) {
			res, err := Ablation(name, Config{
				Reps:          5,
				Seed:          11,
				MinTasks:      150,
				MaxTasks:      400,
				Procs:         []int{8, 32},
				CCRs:          []float64{0.5, 2, 8},
				Heterogeneous: system == "heterogeneous",
			})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := res.WriteTable(&got); err != nil {
				t.Fatal(err)
			}
			if got.String() != want {
				t.Errorf("table differs from results_ablations.txt:\ngot:\n%s\nwant:\n%s", got.String(), want)
			}
		})
	}
}
