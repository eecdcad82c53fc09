// Command edgeload drives a running edgeschedd with concurrent
// clients and reports serving throughput and latency: schedules per
// second, p50/p95/p99 latency, and error counts. It pre-generates a
// pool of random task graphs (so generation cost never pollutes the
// measurement), round-robins them across N closed-loop clients for a
// fixed duration, and exits non-zero if any request failed or the
// measured throughput is zero — which makes it directly usable as a
// smoke gate in CI (see `make load-smoke`). Throughput is the
// successful requests over the measured wall time, from the clients'
// start until the last one's final request returns. A flag that
// leaves nothing to measure (fewer than one client, graph or task, or
// a duration of zero or less) is a usage error: exit 2.
//
// Usage:
//
//	edgeload -url http://127.0.0.1:8080 -clients 16 -duration 10s
//	edgeload -url http://$(cat port.txt) -duration 5s -out LOAD.json
//
// With -out, a benchdiff-style snapshot is written: LoadSchedule's
// ns_per_op is the mean request latency and min_ns_per_op the p50, so
// successive load runs can be diffed with the same tooling as the
// microbenchmarks.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/graphio"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8080", "edgeschedd base URL")
		clients  = flag.Int("clients", 8, "concurrent closed-loop clients")
		duration = flag.Duration("duration", 5*time.Second, "measurement duration")
		graphs   = flag.Int("graphs", 16, "distinct pre-generated task graphs")
		tasks    = flag.Int("tasks", 30, "tasks per generated graph")
		seed     = flag.Int64("seed", 1, "graph generation seed")
		out      = flag.String("out", "", "write a benchdiff-style snapshot to this file")
	)
	flag.Parse()
	if err := checkFlags(*clients, *graphs, *tasks, *duration); err != nil {
		fmt.Fprintln(os.Stderr, "edgeload:", err)
		flag.Usage()
		os.Exit(2)
	}

	bodies := makeBodies(*graphs, *tasks, *seed)

	// One warmup request outside the measurement window: it surfaces
	// connection/config errors immediately and binds a slot's state
	// before the clock starts.
	client := &http.Client{Timeout: 60 * time.Second}
	if err := post(client, *url, bodies[0]); err != nil {
		fatal(fmt.Errorf("warmup request: %w", err))
	}

	var (
		requests atomic.Int64
		failures atomic.Int64
		firstErr atomic.Value
		latMu    sync.Mutex
		lats     []time.Duration
	)
	begin := time.Now()
	deadline := begin.Add(*duration)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			local := make([]time.Duration, 0, 4096)
			for i := c; time.Now().Before(deadline); i++ {
				start := time.Now()
				err := post(client, *url, bodies[i%len(bodies)])
				lat := time.Since(start)
				requests.Add(1)
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				local = append(local, lat)
			}
			latMu.Lock()
			lats = append(lats, local...)
			latMu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(begin)

	n := requests.Load()
	fails := failures.Load()
	throughput := float64(n-fails) / elapsed.Seconds()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })

	fmt.Printf("edgeload: %d clients x %v (measured %v) against %s\n", *clients, *duration, elapsed.Round(time.Millisecond), *url)
	fmt.Printf("  requests    %d (%d failed)\n", n, fails)
	fmt.Printf("  throughput  %.1f schedules/sec\n", throughput)
	if len(lats) > 0 {
		fmt.Printf("  latency     p50 %v  p95 %v  p99 %v  max %v\n",
			pct(lats, 50), pct(lats, 95), pct(lats, 99), lats[len(lats)-1])
	}
	if *out != "" {
		if err := writeSnapshot(*out, lats, n, throughput); err != nil {
			fatal(err)
		}
		fmt.Printf("  snapshot    %s\n", *out)
	}
	if err, _ := firstErr.Load().(error); err != nil {
		fmt.Fprintf(os.Stderr, "edgeload: first error: %v\n", err)
	}
	if fails > 0 || throughput == 0 {
		os.Exit(1)
	}
}

// checkFlags rejects the settings that leave nothing to measure: no
// client, no graph to send, no task in a graph, or no time to send in.
func checkFlags(clients, graphs, tasks int, duration time.Duration) error {
	switch {
	case clients < 1:
		return fmt.Errorf("-clients %d: want at least 1", clients)
	case graphs < 1:
		return fmt.Errorf("-graphs %d: want at least 1", graphs)
	case tasks < 1:
		return fmt.Errorf("-tasks %d: want at least 1", tasks)
	case duration <= 0:
		return fmt.Errorf("-duration %v: want more than 0", duration)
	}
	return nil
}

// makeBodies pre-generates the request payloads: distinct layered DAGs
// of varying shape, serialized once.
func makeBodies(graphs, tasks int, seed int64) [][]byte {
	bodies := make([][]byte, graphs)
	for i := range bodies {
		r := rand.New(rand.NewSource(seed + int64(i)))
		g := dag.RandomLayered(r, dag.RandomLayeredParams{
			Tasks:    tasks/2 + r.Intn(tasks/2+1) + 1,
			TaskCost: dag.CostDist{Lo: 1, Hi: 50},
			EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
		})
		var buf bytes.Buffer
		if err := graphio.WriteGraph(&buf, g); err != nil {
			fatal(err)
		}
		bodies[i] = buf.Bytes()
	}
	return bodies
}

// post sends one scheduling request and drains the response.
func post(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url+"/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// pct returns the p'th percentile of the sorted latencies.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// snapshot mirrors cmd/benchdiff's schema so load runs can be diffed
// with the same tooling as the microbenchmark snapshots.
type snapshot struct {
	Created    string            `json:"created"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Command    string            `json:"command"`
	Benchmarks map[string]sample `json:"benchmarks"`
}

type sample struct {
	Samples     int     `json:"samples"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MinNsPerOp  float64 `json:"min_ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func writeSnapshot(path string, lats []time.Duration, n int64, throughput float64) error {
	var mean float64
	for _, l := range lats {
		mean += float64(l)
	}
	if len(lats) > 0 {
		mean /= float64(len(lats))
	}
	snap := snapshot{
		Created:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Command:    fmt.Sprintf("edgeload %v", os.Args[1:]),
		Benchmarks: map[string]sample{
			"LoadSchedule": {
				Samples:    1,
				Iterations: n,
				NsPerOp:    mean,
				MinNsPerOp: float64(pct(lats, 50)),
			},
			"LoadThroughput": {
				Samples:    1,
				Iterations: n,
				NsPerOp:    1e9 / max(throughput, 1e-9),
				MinNsPerOp: 1e9 / max(throughput, 1e-9),
			},
		},
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "edgeload:", err)
	os.Exit(1)
}
