package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleSuite = `{
  "name": "smoke",
  "figures": [
    {"figure": 1, "csv": true, "reps": 1, "seed": 3,
     "minTasks": 30, "maxTasks": 40, "procs": [4], "ccrs": [2]}
  ],
  "ablations": [
    {"ablation": "routing", "reps": 1, "seed": 3,
     "minTasks": 30, "maxTasks": 40, "procs": [4], "ccrs": [2]}
  ]
}`

func TestLoadSuite(t *testing.T) {
	spec, err := LoadSuite(strings.NewReader(sampleSuite))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "smoke" || len(spec.Figures) != 1 || len(spec.Ablations) != 1 {
		t.Fatalf("spec %+v", spec)
	}
}

func TestLoadSuiteRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"bad json":         `{`,
		"unknown field":    `{"name":"x","bogus":1}`,
		"bad figure":       `{"name":"x","figures":[{"figure":9}]}`,
		"bad ablation":     `{"name":"x","ablations":[{"ablation":"nope"}]}`,
		"empty suite":      `{"name":"x"}`,
		"unknown sub-knob": `{"name":"x","figures":[{"figure":1,"turbo":true}]}`,
	}
	for name, in := range cases {
		if _, err := LoadSuite(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunSuite(t *testing.T) {
	spec, err := LoadSuite(strings.NewReader(sampleSuite))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var log bytes.Buffer
	if err := RunSuite(spec, dir, &log); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"figure1.txt", "figure1.csv", "routing.txt"} {
		data, err := os.ReadFile(filepath.Join(dir, want))
		if err != nil {
			t.Fatalf("missing output %s: %v", want, err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", want)
		}
	}
	if !strings.Contains(log.String(), "Figure 1 done") {
		t.Errorf("log output %q", log.String())
	}
}

func TestConfigFullOverride(t *testing.T) {
	cfg, err := Config{Full: true, Reps: 2, Heterogeneous: true}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 2006 {
		t.Errorf("full config with seed 0 has seed %d, want the paper's 2006", cfg.Seed)
	}
	if len(cfg.CCRs) != 19 || len(cfg.Procs) != 7 {
		t.Fatalf("full config not applied: %+v", cfg)
	}
	if cfg.Reps != 2 {
		t.Fatalf("reps override lost")
	}
	if !cfg.Heterogeneous {
		t.Fatalf("hetero lost")
	}
}

// TestInvalidAxesRejected pins that a sweep axis the generator would
// silently replace is an error, whether it reaches resolve through a
// figure, an ablation, a family comparison or a suite file, instead
// of a table row for a value that never ran.
func TestInvalidAxesRejected(t *testing.T) {
	for name, cfg := range map[string]Config{
		"negative procs":    {Reps: 1, Procs: []int{-3, 4}, CCRs: []float64{1}},
		"zero procs":        {Reps: 1, Procs: []int{0}, CCRs: []float64{1}},
		"zero CCR":          {Reps: 1, Procs: []int{4}, CCRs: []float64{0}},
		"negative CCR":      {Reps: 1, Procs: []int{4}, CCRs: []float64{-2}},
		"max below min":     {Reps: 1, Procs: []int{4}, CCRs: []float64{1}, MinTasks: 50, MaxTasks: 10},
		"max below default": {Reps: 1, Procs: []int{4}, CCRs: []float64{1}, MaxTasks: 10},
	} {
		for n := 1; n <= 4; n++ {
			if _, err := Figure(n, cfg); err == nil {
				t.Errorf("%s: figure %d accepted %+v", name, n, cfg)
			}
		}
		if _, err := Ablation("routing", cfg); err == nil {
			t.Errorf("%s: ablation accepted %+v", name, cfg)
		}
		if _, err := Families(cfg); err == nil {
			t.Errorf("%s: families accepted %+v", name, cfg)
		}
	}
	// A family comparison runs on one machine size and one CCR.
	for _, cfg := range []Config{{Reps: 1, Procs: []int{8, 32}}, {Reps: 1, CCRs: []float64{2, 8}}} {
		if _, err := Families(cfg); err == nil {
			t.Errorf("families accepted %+v", cfg)
		}
	}
	if _, err := (Config{CCRs: []float64{0}}).resolve(); err == nil {
		t.Error("resolve accepted CCR 0")
	}
	for _, doc := range []string{
		`{"name": "bad", "figures": [{"figure": 2, "procs": [-3, 4]}]}`,
		`{"name": "bad", "ablations": [{"ablation": "routing", "ccrs": [0]}]}`,
		`{"name": "bad", "ablations": [{"ablation": "routing", "minTasks": 50, "maxTasks": 10}]}`,
	} {
		if _, err := LoadSuite(strings.NewReader(doc)); err == nil {
			t.Errorf("LoadSuite accepted %s", doc)
		}
	}
	// A lone MinTasks above the default maximum is valid: every
	// instance has exactly MinTasks tasks, as before.
	if _, err := (Config{MinTasks: 1200}).resolve(); err != nil {
		t.Errorf("min tasks above the default max rejected: %v", err)
	}
}
