package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The tables below
// are the program's side of BENCHMARK.json; bench_test.go checks that
// the two agree name for name and unit for unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run: what a caller of the
// daemon or of the one-shot scheduler sees.
var endToEnd = []metricDef{
	{"throughput_sps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run. A layer that is not on a
// workload's path (the daemon on a batch workload, the trace encoder
// on compact responses, BFS routing under OIHSA) reports 0.
var perLayer = []metricDef{
	{"edgeschedd.server_ms_p50", "ms"},
	{"edgeschedd.body_read_ms_p50", "ms"},
	{"edgeschedd.cold_state_frac", "ratio"},
	{"edgeschedd.response_kb", "KB"},
	{"edgeschedd.rss_peak_mb", "MB"},
	{"graphio.decode_ms", "ms"},
	{"graphio.request_kb", "KB"},
	{"dag.priority_ms", "ms"},
	{"sched.schedule_ms", "ms"},
	{"sched.schedule_ms.ba", "ms"},
	{"sched.schedule_ms.oihsa", "ms"},
	{"sched.schedule_ms.bbsa", "ms"},
	{"sched.alloc_kb", "KB"},
	{"sched.mallocs", "count"},
	{"sched.routed_edges", "count"},
	{"sched.route_hops", "count"},
	{"sched.improv_oihsa_pct", "%"},
	{"sched.improv_bbsa_pct", "%"},
	{"network.dijkstra_us", "us"},
	{"network.relax_calls", "count"},
	{"network.bfs_us", "us"},
	{"network.cache_lookups", "count"},
	{"network.cache_hit_ratio", "ratio"},
	{"linksched.slots_per_link_max", "count"},
	{"linksched.slots_total", "count"},
	{"linksched.bw_chunks_total", "count"},
	{"linksched.insert_basic_ns", "ns"},
	{"linksched.probe_basic_ns", "ns"},
	{"linksched.probe_optimal_ns", "ns"},
	{"linksched.bw_estimate_ns", "ns"},
	{"trace.encode_ms", "ms"},
	{"trace.response_kb", "KB"},
	{"verify.verify_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// exactMetrics are the per-layer metrics that are pure functions of the
// seed: identical on every run of one commit, so any change is a
// behaviour change rather than noise.
var exactMetrics = []string{
	"sched.routed_edges", "sched.route_hops",
	"sched.improv_oihsa_pct", "sched.improv_bbsa_pct",
	"network.relax_calls",
	"linksched.slots_per_link_max", "linksched.slots_total", "linksched.bw_chunks_total",
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints; tools that read the benchmark
// rely on exactly these four keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runInfo is printed on the line before the result: what the result
// line has no room for.
type runInfo struct {
	Workload       string `json:"workload"`
	Seed           int64  `json:"seed"`
	Trace          bool   `json:"trace"`
	Samples        int    `json:"samples"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	NProc          int    `json:"nproc"`
	ScheduleDigest string `json:"schedule_digest"`
}

// metricSet collects the values of one run and checks them against the
// table the run must report.
type metricSet struct {
	defs []metricDef
	vals map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: map[string]value{}}
}

// set records a metric; an unknown name is a bug in this program.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// complete returns the values once every metric of the table is set to
// a finite number.
func (m *metricSet) complete() (map[string]value, error) {
	for _, d := range m.defs {
		v, ok := m.vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v.Value)
		}
	}
	return m.vals, nil
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (its default, "exclusive"), so
// spreads computed here and by other tooling agree. A single sample is
// its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
