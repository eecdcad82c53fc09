package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/verify"
)

// The traced run is separate from the measured one and shorter. Spans
// are recorded here, in the benchmark, around calls into each package's
// public functions: nothing inside the program under test is
// instrumented.

// span is one timed call at a layer boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"req"`    // index of the input the span served
	Layer  string `json:"layer"`
	Algo   string `json:"algo,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled in when the trace is written
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced comparison pass runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(parent, req int, layer, algo string) int {
	if t == nil {
		return -1
	}
	return t.add(span{Parent: parent, Req: req, Layer: layer, Algo: algo, Start: t.now(), End: -1})
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span from times the caller took with now.
func (t *tracer) record(parent, req int, layer, algo string, start, end int64) int {
	if t == nil {
		return -1
	}
	return t.add(span{Parent: parent, Req: req, Layer: layer, Algo: algo, Start: start, End: end})
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// checkSpans reports a span that is unfinished or that does not lie
// inside its parent.
func checkSpans(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Layer)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Layer, p.ID, p.Layer)
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			iv = append(iv, [2]int64{spans[k].Start, spans[k].End})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, v := range iv {
			if lo := max(v[0], reach); v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfMedianMs is the median self time, in ms, of a layer's spans
// (restricted to one algorithm unless algo is empty); 0 when the layer
// has no spans, i.e. is not on the workload's path.
func selfMedianMs(spans []span, self []int64, layer, algo string) float64 {
	var xs []float64
	for i, s := range spans {
		if s.Layer == layer && (algo == "" || s.Algo == algo) {
			xs = append(xs, float64(self[i])/1e6)
		}
	}
	return stats.Median(xs)
}

func writeTrace(path string, spans []span, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		s.Self = self[i]
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceBatch is the traced run of a batch workload; refs are in
// paperAlgorithms order.
func traceBatch(cfg config, w spec, in inputs, refs [][]reference, o *outcome) error {
	lss := map[string]*sched.ListScheduler{}
	for _, name := range paperAlgorithms {
		ls, err := preset(name)
		if err != nil {
			return err
		}
		lss[name] = ls
	}
	h := &handlerReplay{w: w, in: in, algos: paperAlgorithms, refs: refs,
		run: func(algo string, p problem) (*sched.Schedule, error) { return lss[algo].Schedule(p.g, p.net) }}
	tr := newTracer()
	m := newMetricSet(perLayer)
	if err := h.measure(tr, m, o); err != nil {
		return err
	}
	// No daemon on this path.
	for _, name := range []string{"edgeschedd.cold_state_frac", "edgeschedd.response_kb", "edgeschedd.rss_peak_mb",
		"network.cache_lookups", "network.cache_hit_ratio"} {
		m.set(name, 0)
	}
	setImprovement(m, refs)
	return finishTrace(cfg, w, tr, m, o)
}

// traceServe is the traced run of a serve workload: one HTTP pass over
// the pool with httptrace, the daemon's /stats and peak RSS, then the
// in-process replay on an engine built like the daemon's over the
// daemon's topology net. refs are in paperAlgorithms order.
func traceServe(ctx context.Context, cfg config, w spec, in inputs, net *network.Topology, refs [][]reference,
	d *daemon, client *http.Client, p *pool, o *outcome) error {
	tr := newTracer()
	m := newMetricSet(perLayer)
	respKB, err := httpPass(ctx, tr, client, d.url, p, o)
	if err != nil {
		return err
	}
	m.set("edgeschedd.response_kb", respKB)
	st, err := engineStats(ctx, client, d.url)
	if err != nil {
		return err
	}
	m.set("edgeschedd.cold_state_frac", float64(st.ColdState)/float64(max(st.Requests, 1)))
	m.set("network.cache_lookups", float64(st.CacheHits+st.CacheMisses))
	m.set("network.cache_hit_ratio", st.CacheHitRate)
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	m.set("edgeschedd.rss_peak_mb", rss)

	ls, err := preset(w.algo)
	if err != nil {
		return err
	}
	// edgeschedd's defaults.
	eng, err := sched.NewEngine(net, sched.EngineOptions{
		Name: ls.AlgorithmName, Opts: ls.Opts, MaxQueue: 256, WarmRoutes: true, SelfCheckEvery: 1000,
	})
	if err != nil {
		return err
	}
	defer eng.Drain()
	a := slices.Index(paperAlgorithms, w.algo)
	h := &handlerReplay{w: w, in: in, net: net, algos: []string{w.algo}, refs: refs[a : a+1],
		run: func(_ string, p problem) (*sched.Schedule, error) { return eng.Schedule(p.g) }}
	if err := h.measure(tr, m, o); err != nil {
		return err
	}
	setImprovement(m, refs)
	return finishTrace(cfg, w, tr, m, o)
}

// finishTrace derives the span metrics, writes the trace file and
// completes the result.
func finishTrace(cfg config, w spec, tr *tracer, m *metricSet, o *outcome) error {
	if err := checkSpans(tr.spans); err != nil {
		return err
	}
	self := selfTimes(tr.spans)
	med := func(layer, algo string) float64 { return selfMedianMs(tr.spans, self, layer, algo) }
	m.set("edgeschedd.server_ms_p50", med("edgeschedd.server", ""))
	m.set("edgeschedd.body_read_ms_p50", med("http.body_read", ""))
	m.set("graphio.decode_ms", med("graphio.decode", ""))
	m.set("dag.priority_ms", med("dag.priority", ""))
	m.set("sched.schedule_ms", med("sched.schedule", ""))
	for _, a := range paperAlgorithms {
		m.set("sched.schedule_ms."+strings.ToLower(a), med("sched.schedule", a))
	}
	m.set("trace.encode_ms", med("trace.encode", ""))
	m.set("verify.verify_ms", med("verify.verify", ""))
	if err := writeTrace(filepath.Join(cfg.out, "trace-"+w.name+".jsonl"), tr.spans, self); err != nil {
		return err
	}
	o.info.Samples = len(tr.spans)
	return o.finish(m)
}

// setImprovement records the mean improvement over BA; refs are in
// paperAlgorithms order.
func setImprovement(m *metricSet, refs [][]reference) {
	m.set("sched.improv_oihsa_pct", improvement(refs, 1))
	m.set("sched.improv_bbsa_pct", improvement(refs, 2))
}

// handlerReplay replays a workload's inputs in process through the call
// sequence of edgeschedd's /schedule handler: graphio decoding, the
// priority order, the schedule, the response encoding (serve workloads)
// and verify.Verify. dag.PriorityOrder is called on its own to time the
// dag layer; the scheduler computes it again inside.
type handlerReplay struct {
	w     spec
	in    inputs
	net   *network.Topology // serve workloads: the daemon's topology, decoded once
	algos []string
	refs  [][]reference // per algorithm of algos
	run   func(algo string, p problem) (*sched.Schedule, error)

	// Filled by each pass.
	schedules       int
	alloc, mallocs  uint64
	encoded, encLen int
}

// measure runs a warm-up pass, then rounds of untraced and traced
// passes in the order untraced, traced, traced, untraced (a steady drift
// in machine speed cancels out of the tracing overhead) until they add
// up to a few seconds, and a last pass that replays the kernels on each
// schedule as it is made.
func (h *handlerReplay) measure(tr *tracer, m *metricSet, o *outcome) error {
	if err := h.pass(nil, o, nil); err != nil {
		return err
	}
	var plain, traced time.Duration
	for plain+traced < 4*time.Second {
		for _, t := range []*tracer{nil, tr, tr, nil} {
			t0 := time.Now()
			if err := h.pass(t, o, nil); err != nil {
				return err
			}
			if t == nil {
				plain += time.Since(t0)
			} else {
				traced += time.Since(t0)
			}
		}
	}
	m.set("bench.trace_overhead_pct", 100*(traced-plain).Seconds()/plain.Seconds())
	n := float64(max(h.schedules, 1))
	m.set("sched.alloc_kb", float64(h.alloc)/n/1024)
	m.set("sched.mallocs", float64(h.mallocs)/n)
	m.set("trace.response_kb", float64(h.encLen)/float64(max(h.encoded, 1))/1024)
	size := 0
	for _, it := range h.in.items {
		size += len(it.topo) + len(it.graph)
	}
	m.set("graphio.request_kb", float64(size)/float64(len(h.in.items))/1024)

	var k kernels
	var routed, hops int
	if err := h.pass(nil, o, func(i int, algo string, s *sched.Schedule) error {
		cs := s.CommStats()
		routed += cs.RoutedEdges
		hops += cs.TotalHops
		return k.replay(tr, i, algo, s)
	}); err != nil {
		return err
	}
	k.set(m)
	m.set("sched.routed_edges", float64(routed))
	m.set("sched.route_hops", float64(hops))
	return nil
}

// pass replays every input once, spanning the calls on tr, and hands
// each checked schedule to then, if not nil.
func (h *handlerReplay) pass(tr *tracer, o *outcome, then func(i int, algo string, s *sched.Schedule) error) error {
	h.schedules, h.alloc, h.mallocs, h.encoded, h.encLen = 0, 0, 0, 0, 0
	var (
		before, after runtime.MemStats
		buf           bytes.Buffer
	)
	for i, it := range h.in.items {
		root := tr.begin(-1, i, "request", "")
		sp := tr.begin(root, i, "graphio.decode", "")
		p, err := decodeItem(it, h.net)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin(root, i, "dag.priority", "")
		_, err = p.g.PriorityOrder()
		tr.end(sp)
		if err != nil {
			return err
		}
		for a, algo := range h.algos {
			runtime.ReadMemStats(&before)
			sp = tr.begin(root, i, "sched.schedule", algo)
			s, err := h.run(algo, p)
			tr.end(sp)
			runtime.ReadMemStats(&after)
			h.schedules++
			h.alloc += after.TotalAlloc - before.TotalAlloc
			h.mallocs += after.Mallocs - before.Mallocs
			o.res.Attempted++
			if err != nil {
				o.fail(fmt.Errorf("%s on input %d: %w", algo, i, err))
				continue
			}
			if h.w.serving() {
				if err := h.encode(tr, root, i, algo, s, &buf); err != nil {
					return err
				}
			}
			sp = tr.begin(root, i, "verify.verify", algo)
			err = verify.Verify(s).Err()
			tr.end(sp)
			if err == nil && fingerprint(s) != h.refs[a][i].fp {
				err = errors.New("differs from the cold one-shot reference")
			}
			if err != nil {
				o.fail(fmt.Errorf("%s on input %d: %w", algo, i, err))
				continue
			}
			if then != nil {
				if err := then(i, algo, s); err != nil {
					return err
				}
			}
		}
		tr.end(root)
	}
	return nil
}

// encode writes the response edgeschedd would send for s.
func (h *handlerReplay) encode(tr *tracer, root, i int, algo string, s *sched.Schedule, buf *bytes.Buffer) error {
	buf.Reset()
	if !h.w.full {
		sp := tr.begin(root, i, "edgeschedd.encode", algo)
		err := json.NewEncoder(buf).Encode(newCompact(s))
		tr.end(sp)
		return err
	}
	sp := tr.begin(root, i, "trace.encode", algo)
	err := trace.WriteScheduleJSON(buf, s)
	tr.end(sp)
	h.encoded++
	h.encLen += buf.Len()
	return err
}

// httpPass sends each request of the pool once, split between the
// clients, recording per request: the round trip, the request write,
// the server's time to first byte, and the body read. It returns the
// mean response size in KB.
func httpPass(ctx context.Context, tr *tracer, client *http.Client, url string, p *pool, o *outcome) (float64, error) {
	type share struct {
		bytes, ok, attempted int64
		errs                 []error
	}
	per := make([]share, clients)
	n := len(p.bodies)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for k := c * n / clients; k < (c+1)*n/clients; k++ {
				err := tracedRoundTrip(ctx, tr, client, url, p, k, &buf)
				if err == nil {
					err = p.check(k, buf.Bytes())
				}
				per[c].attempted++
				if err != nil {
					per[c].errs = append(per[c].errs, err)
					continue
				}
				per[c].ok++
				per[c].bytes += int64(buf.Len())
			}
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var size, ok int64
	for _, s := range per {
		o.res.Attempted += s.attempted
		for _, err := range s.errs {
			o.fail(err)
		}
		size += s.bytes
		ok += s.ok
	}
	return float64(size) / float64(max(ok, 1)) / 1024, nil
}

func tracedRoundTrip(ctx context.Context, tr *tracer, client *http.Client, url string, p *pool, k int, buf *bytes.Buffer) error {
	var wrote, first atomic.Int64 // set on the transport's goroutines
	ct := &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(tr.now()) },
		GotFirstResponseByte: func() { first.Store(tr.now()) },
	}
	start := tr.now()
	err := p.roundTrip(httptrace.WithClientTrace(ctx, ct), client, url, k, buf)
	end := tr.now()
	root := tr.record(-1, k, "edgeschedd.request", "", start, end)
	if wr, fb := wrote.Load(), first.Load(); err == nil && wr > 0 && fb > 0 {
		// The server may answer before the writer goroutine reports the
		// last byte written.
		wr = min(max(wr, start), fb)
		tr.record(root, k, "http.write", "", start, wr)
		tr.record(root, k, "edgeschedd.server", "", wr, fb)
		tr.record(root, k, "http.body_read", "", fb, end)
	}
	return err
}

// daemonStats is the part of edgeschedd's /stats (sched.EngineStats)
// the benchmark reads.
type daemonStats struct {
	Requests     int64
	ColdState    int64
	CacheHits    int64
	CacheMisses  int64
	CacheHitRate float64
}

func engineStats(ctx context.Context, client *http.Client, url string) (daemonStats, error) {
	var st daemonStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("/stats: %w", err)
	}
	return st, nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) from Linux's
// /proc.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
