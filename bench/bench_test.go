package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSpecMatchesProgram checks that BENCHMARK.json and this program
// agree on the workloads and on every metric's name and unit.
func TestSpecMatchesProgram(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	var e2e, layers []metricDef
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range sp.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	sameDefs(t, "end_to_end", e2e, endToEnd)
	sameDefs(t, "per_layer", layers, perLayer)
	for _, name := range exactMetrics {
		if !hasDef(perLayer, name) {
			t.Errorf("exact metric %s is not a per-layer metric", name)
		}
	}
}

func sameDefs(t *testing.T, what string, got, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("BENCHMARK.json has %d %s metrics, the program reports %d", len(got), what, len(want))
	}
	for _, d := range want {
		if !hasDef(got, d.Name) {
			t.Errorf("%s metric %s (%s) is missing from BENCHMARK.json", what, d.Name, d.Unit)
		}
	}
	for _, d := range got {
		if !hasDef(want, d.Name) {
			t.Errorf("BENCHMARK.json %s metric %s is not reported by the program", what, d.Name)
			continue
		}
		for _, w := range want {
			if w.Name == d.Name && w.Unit != d.Unit {
				t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", d.Name, d.Unit, w.Unit)
			}
		}
	}
}

func hasDef(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// TestBatchWorkloads runs each batch workload briefly on its first few
// instances, untraced and traced, and checks the reports: every metric
// present with its unit, no failures, exact metrics reproducible for a
// seed and moved by another seed, and the written spans well nested.
func TestBatchWorkloads(t *testing.T) {
	for _, c := range []struct {
		name      string
		instances int
	}{{"paper_sweep", 12}, {"long_links", 2}} {
		t.Run(c.name, func(t *testing.T) {
			w, err := findWorkload(c.name)
			if err != nil {
				t.Fatal(err)
			}
			w.cells = w.cells[:c.instances]
			cfg := config{seed: 1, seconds: time.Second, out: t.TempDir()}
			plain := mustRun(t, cfg, w, endToEnd)
			cfg.trace = true
			a := mustRun(t, cfg, w, perLayer)
			checkTraceFile(t, cfg.out, w.name, batchLayers)
			b := mustRun(t, cfg, w, perLayer)
			cfg.seed = 2
			c := mustRun(t, cfg, w, perLayer)

			if plain.info.ScheduleDigest != a.info.ScheduleDigest || a.info.ScheduleDigest != b.info.ScheduleDigest {
				t.Errorf("schedule digests %s, %s, %s for one seed", plain.info.ScheduleDigest, a.info.ScheduleDigest, b.info.ScheduleDigest)
			}
			if a.info.ScheduleDigest == c.info.ScheduleDigest {
				t.Errorf("seeds 1 and 2 gave the same schedule digest %s", a.info.ScheduleDigest)
			}
			for _, m := range exactMetrics {
				va, vb, vc := a.res.Metrics[m].Value, b.res.Metrics[m].Value, c.res.Metrics[m].Value
				if math.Float64bits(va) != math.Float64bits(vb) {
					t.Errorf("%s: %v then %v for one seed", m, va, vb)
				}
				if math.Float64bits(va) == math.Float64bits(vc) {
					t.Errorf("%s: %v for both seeds", m, va)
				}
			}
		})
	}
}

// TestServeWorkloads drives a freshly built edgeschedd with each serve
// workload, untraced and traced.
func TestServeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts edgeschedd")
	}
	for _, name := range []string{"serve_small", "serve_full"} {
		t.Run(name, func(t *testing.T) {
			w, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := config{seed: 1, seconds: time.Second, out: t.TempDir()}
			mustRun(t, cfg, w, endToEnd)
			cfg.trace = true
			o := mustRun(t, cfg, w, perLayer)
			layers := append([]string{"edgeschedd.request", "http.write", "edgeschedd.server", "http.body_read"}, batchLayers[:5]...)
			if w.full {
				layers = append(layers, "trace.encode")
			}
			checkTraceFile(t, cfg.out, w.name, layers)
			if o.res.Metrics["edgeschedd.server_ms_p50"].Value <= 0 {
				t.Errorf("no server time measured: %+v", o.res.Metrics["edgeschedd.server_ms_p50"])
			}
		})
	}
}

// batchLayers are the span layers of a traced batch run.
var batchLayers = []string{"request", "graphio.decode", "dag.priority", "sched.schedule", "verify.verify",
	"replay", "linksched.insert_basic", "network.dijkstra", "linksched.probe_basic", "linksched.probe_optimal",
	"linksched.bw_alloc", "linksched.bw_estimate", "network.bfs"}

// mustRun makes one run and checks its report against the metric table
// the run must print.
func mustRun(t *testing.T, cfg config, w spec, defs []metricDef) outcome {
	t.Helper()
	o, err := runWorkload(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if !o.res.Correct || o.res.Failed != 0 || o.res.Attempted < 1 {
		t.Fatalf("run not correct: attempted %d, failed %d", o.res.Attempted, o.res.Failed)
	}
	if len(o.res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(o.res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := o.res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("metric %s: got %+v, want unit %q", d.Name, v, d.Unit)
		}
	}
	if o.info.Samples < 1 || o.info.ScheduleDigest == "" {
		t.Errorf("info line incomplete: %+v", o.info)
	}
	return o
}

// checkTraceFile reads a written trace: spans nest, self times are not
// negative, and every expected layer has spans.
func checkTraceFile(t *testing.T, dir, workload string, layers []string) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
	seen := map[string]bool{}
	for i, s := range spans {
		if s.ID != i {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
		if s.Self < 0 {
			t.Errorf("span %d (%s) has self time %d", s.ID, s.Layer, s.Self)
		}
		seen[s.Layer] = true
	}
	for _, l := range layers {
		if !seen[l] {
			t.Errorf("no %s spans in the trace", l)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps its sibling
		{ID: 3, Parent: 1, Start: 10, End: 40},
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	got := selfTimes(spans)
	want := []int64{50, 0, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	spans[2].End = 120
	if checkSpans(spans) == nil {
		t.Error("a child outliving its parent passed checkSpans")
	}
}

// TestQuartiles pins the method to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{3}, 3, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, thr ...float64) string {
		var b strings.Builder
		for _, v := range thr {
			fmt.Fprintf(&b, "{\"workload\":\"paper_sweep\",\"schedule_digest\":\"abc\"}\n"+
				"{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"throughput_sps\":{\"value\":%v,\"unit\":\"1/s\"}}}\n", v)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	steady := write("a", 100, 101, 99)
	var out strings.Builder
	if err := compare(&out, "../BENCHMARK.json", steady, write("same", 100, 100, 102)); err != nil {
		t.Errorf("equal sets failed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compare(&out, "../BENCHMARK.json", steady, write("slow", 60, 61, 59)); err == nil || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("a 40%% slower set passed:\n%s", out.String())
	}
	out.Reset()
	if err := compare(&out, "../BENCHMARK.json", steady, write("noisy", 60, 100, 140)); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a set spread beyond the bound was not unresolved (%v):\n%s", err, out.String())
	}
}
