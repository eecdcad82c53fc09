package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/stats"
)

// benchSpec is the part of BENCHMARK.json this program reads: -compare
// takes the bounds from it, so they live in one place.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSet is one file's runs, grouped by workload (traced runs apart).
type runSet map[string]*runs

type runs struct {
	n         int
	incorrect int
	digests   []string
	metrics   map[string][]float64
}

// readRuns parses a file of benchmark output: each info line opens a
// run and the result line after it closes it; other lines are skipped.
func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	var cur *runs
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rec struct {
			Workload       *string          `json:"workload"` // set on info lines only
			Trace          bool             `json:"trace"`
			ScheduleDigest string           `json:"schedule_digest"`
			Correct        bool             `json:"correct"`
			Metrics        map[string]value `json:"metrics"` // set on result lines only
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			continue
		}
		switch {
		case rec.Workload != nil:
			key := *rec.Workload
			if rec.Trace {
				key += " (traced)"
			}
			if set[key] == nil {
				set[key] = &runs{metrics: map[string][]float64{}}
			}
			cur = set[key]
			cur.digests = append(cur.digests, rec.ScheduleDigest)
		case rec.Metrics != nil && cur != nil:
			cur.n++
			if !rec.Correct {
				cur.incorrect++
			}
			for name, v := range rec.Metrics {
				cur.metrics[name] = append(cur.metrics[name], v.Value)
			}
			cur = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s holds no benchmark runs", path)
	}
	return set, nil
}

// compare prints, per workload and metric, the median and quartiles of
// each set of runs and a verdict: for an end-to-end metric "ok", "WORSE"
// (B's median is worse than A's by more than the bound) or "unresolved"
// (either set's quartile spread exceeds the bound, so the runs cannot
// tell); for an exact per-layer metric "identical" or "DIFFERS". It
// fails on WORSE, DIFFERS, differing schedule digests or a run that
// failed its checks.
func compare(w io.Writer, specPath, pathA, pathB string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := 0
	for _, key := range keys {
		ra, rb := a[key], b[key]
		if rb == nil {
			fmt.Fprintf(w, "== %s: no runs in %s\n", key, pathB)
			continue
		}
		fmt.Fprintf(w, "== %s (A: %d runs, B: %d runs)\n", key, ra.n, rb.n)
		if ra.incorrect+rb.incorrect > 0 {
			fmt.Fprintf(w, "   %d runs failed their correctness checks\n", ra.incorrect+rb.incorrect)
			bad++
		}
		digests := append(slices.Clone(ra.digests), rb.digests...)
		slices.Sort(digests)
		if uniq := slices.Compact(digests); len(uniq) == 1 {
			fmt.Fprintf(w, "   schedule_digest %s in every run\n", uniq[0])
		} else {
			fmt.Fprintf(w, "   schedule_digest DIFFERS: %v\n", uniq)
			bad++
		}
		fmt.Fprintf(w, "   %-30s %-6s %-32s %-32s %8s %6s  %s\n", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
		for _, e := range sp.EndToEnd {
			xa, xb := ra.metrics[e.Name], rb.metrics[e.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			verdict := judge(xa, xb, e.Bound, e.Better == "higher")
			if verdict == "WORSE" {
				bad++
			}
			row(w, e.Name, e.Unit, xa, xb, fmt.Sprintf("%.0f%%", 100*e.Bound), verdict)
		}
		for _, l := range sp.PerLayer {
			xa, xb := ra.metrics[l.Name], rb.metrics[l.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			verdict := "-"
			if slices.Contains(exactMetrics, l.Name) {
				verdict = "identical"
				for _, x := range append(slices.Clone(xa), xb...) {
					if math.Float64bits(x) != math.Float64bits(xa[0]) {
						verdict = "DIFFERS"
					}
				}
				if verdict == "DIFFERS" {
					bad++
				}
			}
			row(w, l.Name, l.Unit, xa, xb, "", verdict)
		}
	}
	if bad > 0 {
		return errors.New("the two sets of runs disagree beyond the benchmark's bounds")
	}
	return nil
}

// judge compares two sets of runs of one end-to-end metric.
func judge(xa, xb []float64, bound float64, higherBetter bool) string {
	ma, mb := stats.Median(xa), stats.Median(xb)
	if spread(xa) > bound || spread(xb) > bound {
		return "unresolved"
	}
	worse := (mb - ma) / math.Abs(ma)
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return "WORSE"
	}
	return "ok"
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(stats.Median(xs))
}

func row(w io.Writer, name, unit string, xa, xb []float64, bound, verdict string) {
	cell := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g [%.4g, %.4g]", stats.Median(xs), q1, q3)
	}
	change := "-"
	if ma := stats.Median(xa); ma != 0 {
		change = fmt.Sprintf("%+.1f%%", 100*(stats.Median(xb)-ma)/math.Abs(ma))
	}
	fmt.Fprintf(w, "   %-30s %-6s %-32s %-32s %8s %6s  %s\n", name, unit, cell(xa), cell(xb), change, bound, verdict)
}
