package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// SuiteSpec declares a whole experiment campaign in one document, so a
// paper-style evaluation is reproducible from a single JSON file.
type SuiteSpec struct {
	// Name labels the campaign (used in the summary output).
	Name string `json:"name"`
	// Figures lists figure regenerations to run.
	Figures []FigureSpec `json:"figures,omitempty"`
	// Ablations lists ablation studies to run.
	Ablations []AblationSpec `json:"ablations,omitempty"`
}

// SpecConfig is the JSON shape of a sweep configuration; zero fields
// fall back to the harness defaults (or the full paper config when
// Full is set).
type SpecConfig struct {
	Full          bool      `json:"full,omitempty"`
	Reps          int       `json:"reps,omitempty"`
	Seed          int64     `json:"seed,omitempty"`
	MinTasks      int       `json:"minTasks,omitempty"`
	MaxTasks      int       `json:"maxTasks,omitempty"`
	Procs         []int     `json:"procs,omitempty"`
	CCRs          []float64 `json:"ccrs,omitempty"`
	Heterogeneous bool      `json:"heterogeneous,omitempty"`
	Verify        bool      `json:"verify,omitempty"`
	Workers       int       `json:"workers,omitempty"`
}

// Config converts the spec to a sweep configuration. It is the one
// place the "zero means default" rules live: a zero Seed keeps the
// base config's seed (the paper's with Full), and zero counts and
// empty axes keep the defaults. Invalid axes are an error.
func (sc SpecConfig) Config() (Config, error) {
	var cfg Config
	if sc.Full {
		cfg = PaperConfig(sc.Heterogeneous)
	}
	cfg.Heterogeneous = sc.Heterogeneous
	cfg.Verify = sc.Verify
	cfg.Workers = sc.Workers
	if sc.Reps > 0 {
		cfg.Reps = sc.Reps
	}
	if sc.Seed != 0 {
		cfg.Seed = sc.Seed
	}
	if sc.MinTasks > 0 {
		cfg.MinTasks = sc.MinTasks
	}
	if sc.MaxTasks > 0 {
		cfg.MaxTasks = sc.MaxTasks
	}
	if len(sc.Procs) > 0 {
		cfg.Procs = sc.Procs
	}
	if len(sc.CCRs) > 0 {
		cfg.CCRs = sc.CCRs
	}
	_, err := cfg.resolve()
	return cfg, err
}

// FigureSpec declares one figure regeneration.
type FigureSpec struct {
	// Figure is the paper figure number (1-4).
	Figure int `json:"figure"`
	// Output is the file basename (without extension) results are
	// written to; defaults to "figureN".
	Output string `json:"output,omitempty"`
	// CSV additionally writes a .csv file next to the .txt table.
	CSV bool `json:"csv,omitempty"`
	SpecConfig
}

// AblationSpec declares one ablation run.
type AblationSpec struct {
	// Ablation is the study key; see AblationNames.
	Ablation string `json:"ablation"`
	// Output is the file basename; defaults to the ablation key.
	Output string `json:"output,omitempty"`
	SpecConfig
}

// LoadSuite parses a SuiteSpec from JSON, rejecting unknown fields and
// invalid references early.
func LoadSuite(r io.Reader) (*SuiteSpec, error) {
	var spec SuiteSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("experiment: suite: %w", err)
	}
	for i, f := range spec.Figures {
		if f.Figure < 1 || f.Figure > 4 {
			return nil, fmt.Errorf("experiment: suite figure entry %d: figure %d does not exist", i, f.Figure)
		}
		if _, err := f.Config(); err != nil {
			return nil, fmt.Errorf("experiment: suite figure entry %d: %w", i, err)
		}
	}
	for i, a := range spec.Ablations {
		if _, ok := ablations[a.Ablation]; !ok {
			return nil, fmt.Errorf("experiment: suite ablation entry %d: unknown ablation %q", i, a.Ablation)
		}
		if _, err := a.Config(); err != nil {
			return nil, fmt.Errorf("experiment: suite ablation entry %d: %w", i, err)
		}
	}
	if len(spec.Figures) == 0 && len(spec.Ablations) == 0 {
		return nil, fmt.Errorf("experiment: suite declares no work")
	}
	return &spec, nil
}

// RunSuite executes every entry of the suite, writing one .txt table
// (and optionally .csv) per entry into outDir, and a summary line per
// entry to log. It stops at the first failing entry.
func RunSuite(spec *SuiteSpec, outDir string, log io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("experiment: suite: %w", err)
	}
	for _, f := range spec.Figures {
		cfg, err := f.Config()
		if err != nil {
			return err
		}
		sw, err := Figure(f.Figure, cfg)
		if err != nil {
			return err
		}
		base := f.Output
		if base == "" {
			base = fmt.Sprintf("figure%d", f.Figure)
		}
		if err := writeTo(filepath.Join(outDir, base+".txt"), sw.WriteTable); err != nil {
			return err
		}
		if f.CSV {
			if err := writeTo(filepath.Join(outDir, base+".csv"), sw.WriteCSV); err != nil {
				return err
			}
		}
		fmt.Fprintf(log, "suite %s: %s done (%d instances) -> %s.txt\n", spec.Name, sw.Label, sw.Instances, base)
	}
	for _, a := range spec.Ablations {
		cfg, err := a.Config()
		if err != nil {
			return err
		}
		res, err := Ablation(a.Ablation, cfg)
		if err != nil {
			return err
		}
		base := a.Output
		if base == "" {
			base = a.Ablation
		}
		if err := writeTo(filepath.Join(outDir, base+".txt"), res.WriteTable); err != nil {
			return err
		}
		fmt.Fprintf(log, "suite %s: ablation %s done (%d instances) -> %s.txt\n", spec.Name, a.Ablation, res.Instances, base)
	}
	return nil
}

// writeTo writes with fn into a freshly created file.
func writeTo(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiment: suite: %w", err)
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
