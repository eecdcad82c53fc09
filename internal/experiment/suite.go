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

// FigureSpec declares one figure regeneration.
type FigureSpec struct {
	// Figure is the paper figure number (1-4).
	Figure int `json:"figure"`
	// Output is the file basename (without extension) results are
	// written to; defaults to "figureN".
	Output string `json:"output,omitempty"`
	// CSV additionally writes a .csv file next to the .txt table.
	CSV bool `json:"csv,omitempty"`
	// Config is the entry's run; Figure fixes its Heterogeneous.
	Config
}

// AblationSpec declares one ablation run.
type AblationSpec struct {
	// Ablation is the study key; see AblationNames.
	Ablation string `json:"ablation"`
	// Output is the file basename; defaults to the ablation key.
	Output string `json:"output,omitempty"`
	// Config is the entry's run.
	Config
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
		if _, err := f.resolve(); err != nil {
			return nil, fmt.Errorf("experiment: suite figure entry %d: %w", i, err)
		}
	}
	for i, a := range spec.Ablations {
		if _, ok := ablations[a.Ablation]; !ok {
			return nil, fmt.Errorf("experiment: suite ablation entry %d: unknown ablation %q", i, a.Ablation)
		}
		if _, err := a.resolve(); err != nil {
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
		sw, err := Figure(f.Figure, f.Config)
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
		res, err := Ablation(a.Ablation, a.Config)
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
