package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/sched"
)

// runOut runs the command in process and returns its stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("edgesim %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

func TestEvaluation(t *testing.T) {
	tiny := []string{"-reps", "1", "-min-tasks", "20", "-max-tasks", "30", "-procs", "4", "-ccrs", "2", "-verify"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-figure", "1"}, "Figure 1"},
		{[]string{"-figure", "4", "-csv"}, "processors,base_mean_makespan"},
		{[]string{"-ablation", "league"}, "OIHSA/task-ins"},
	} {
		if out := runOut(t, append(tc.args, tiny...)...); !strings.Contains(out, tc.want) {
			t.Errorf("edgesim %v: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}

func TestSuite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "suite.json")
	doc := `{"name": "t", "ablations": [{"ablation": "routing", "reps": 1, "minTasks": 20, "maxTasks": 30, "procs": [4], "ccrs": [2]}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOut(t, "-suite", path, "-out", filepath.Join(dir, "out"))
	if !strings.Contains(out, "ablation routing done") {
		t.Errorf("suite log %q", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "out", "routing.txt")); err != nil {
		t.Error(err)
	}
}

func TestDAG(t *testing.T) {
	if out := runOut(t, "dag", "-kind", "gauss", "-size", "4"); !strings.HasPrefix(out, "gauss graph:") || !strings.Contains(out, "first 9 tasks by priority") {
		t.Errorf("dag stats:\n%s", out)
	}
	if out := runOut(t, "dag", "-kind", "fft", "-size", "2", "-dot"); !strings.HasPrefix(out, "digraph") {
		t.Errorf("dag -dot:\n%s", out)
	}
	if out := runOut(t, "dag", "-kind", "sp", "-size", "3", "-json"); !strings.Contains(out, `"tasks"`) {
		t.Errorf("dag -json:\n%s", out)
	}
}

func TestNet(t *testing.T) {
	if out := runOut(t, "net", "-kind", "cluster", "-procs", "4"); !strings.Contains(out, "mean BFS route length over 12 sampled pairs") {
		t.Errorf("net stats:\n%s", out)
	}
	if out := runOut(t, "net", "-kind", "ring", "-procs", "3", "-dot"); !strings.Contains(out, "graph") {
		t.Errorf("net -dot:\n%s", out)
	}
	if out := runOut(t, "net", "-kind", "star", "-procs", "3", "-json"); !strings.Contains(out, `"nodes"`) {
		t.Errorf("net -json:\n%s", out)
	}
}

// TestNetRejectsNonPositiveSizes pins that a size flag of zero or less
// is an error, not a divide-by-zero panic (dragonfly divides by -dim).
func TestNetRejectsNonPositiveSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "dragonfly", "-dim", "0"},
		{"-kind", "ring", "-procs", "0"},
		{"-kind", "mesh", "-rows", "-1"},
		{"-kind", "torus", "-cols", "0"},
	} {
		err := run(append([]string{"net"}, args...), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "not positive") {
			t.Errorf("net %v: err = %v, want a not-positive error", args, err)
		}
	}
}

// TestNetSizeBounds pins the edges of the size flags: a ring or a bus
// of one processor is one processor without links, and a -dim whose
// 2^dim processors no topology holds is an error, checked before any
// builder runs.
func TestNetSizeBounds(t *testing.T) {
	for _, kind := range []string{"ring", "bus"} {
		if out := runOut(t, "net", "-kind", kind, "-procs", "1"); !strings.Contains(out, "net{procs:1 switches:0 links:0}") {
			t.Errorf("net -kind %s -procs 1:\n%s", kind, out)
		}
	}
	for _, kind := range []string{"hypercube", "tree", "butterfly"} {
		if err := run([]string{"net", "-kind", kind, "-dim", "64"}, &bytes.Buffer{}); err == nil {
			t.Errorf("net -kind %s -dim 64 accepted", kind)
		}
	}
}

func TestSchedule(t *testing.T) {
	out := runOut(t, "schedule", "-algo", "BBSA", "-procs", "4", "-tasks", "20", "-links", "-analyze", "-events", "3")
	if !strings.HasPrefix(out, "BBSA on ") || !strings.Contains(out, "(verified)") {
		t.Errorf("schedule summary:\n%s", out)
	}
	dir := t.TempDir()
	for name, args := range map[string][]string{
		"g.json": {"dag", "-kind", "fft", "-size", "2", "-json"},
		"n.json": {"net", "-kind", "star", "-procs", "3", "-json"},
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(runOut(t, args...)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out = runOut(t, "schedule", "-algo", "replay", "-dag", filepath.Join(dir, "g.json"), "-net", filepath.Join(dir, "n.json"), "-gantt=false")
	if !strings.HasPrefix(out, "Classic+Replay on ") || !strings.Contains(out, "tasks=12") {
		t.Errorf("schedule from files:\n%s", out)
	}
	for _, f := range []string{"-json", "-csv", "-svg", "-html"} {
		if out := runOut(t, "schedule", "-algo", "ba", "-procs", "4", "-tasks", "20", f); out == "" {
			t.Errorf("schedule %s printed nothing", f)
		}
	}
}

// TestUnknownNames pins that a bad subcommand, algorithm or ablation
// fails with every valid name listed.
func TestUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		names []string
	}{
		{[]string{"view"}, []string{"dag", "net", "schedule"}},
		{[]string{"schedule", "-algo", "heft"}, sched.AlgorithmNames()},
		{[]string{"-ablation", "refiners"}, experiment.AblationNames()},
	} {
		err := run(tc.args, &bytes.Buffer{})
		if err == nil {
			t.Errorf("edgesim %v accepted", tc.args)
			continue
		}
		for _, n := range tc.names {
			if !strings.Contains(err.Error(), n) {
				t.Errorf("edgesim %v: error %q does not list %s", tc.args, err, n)
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"-no-such-flag"}, {"dag", "-no-such-flag"}} {
		if err := run(args, &bytes.Buffer{}); !errors.Is(err, errUsage) {
			t.Errorf("edgesim %v: err = %v, want errUsage", args, err)
		}
	}
	if err := run([]string{"-figure", "2", "-procs", "-3,4", "-ccrs", "1", "-reps", "1"}, &bytes.Buffer{}); err == nil {
		t.Error("negative processor count accepted")
	}
	if err := run([]string{"-families", "-procs", "8,32"}, &bytes.Buffer{}); err == nil {
		t.Error("-families with two processor counts accepted")
	}
}
