package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/sched"
	"repro/internal/trace"
)

// runServe makes one run of a serve workload: closed-loop clients post
// the request pool round-robin to an edgeschedd started on the
// workload's topology, for the run's duration. Every response is
// checked against a cold one-shot reference computed here.
func runServe(ctx context.Context, cfg config, w spec, in inputs) (outcome, error) {
	ps, err := decode(in)
	if err != nil {
		return outcome{}, err
	}
	algos := []string{w.algo}
	if cfg.trace {
		algos = paperAlgorithms // the traced run also reports improvement over BA
	}
	ai := slices.Index(algos, w.algo)
	served := make([]*sched.Schedule, len(ps))
	refs, err := references(ps, algos, func(a, i int, s *sched.Schedule) {
		if a == ai {
			served[i] = s
		}
	})
	if err != nil {
		return outcome{}, err
	}
	o := newOutcome(w, cfg, digest(refs[ai:ai+1]))

	bin, err := buildDaemon(ctx, cfg.out)
	if err != nil {
		return o, err
	}
	dir, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return o, err
	}
	defer os.RemoveAll(dir)
	topoPath := filepath.Join(dir, "topology.json")
	if err := os.WriteFile(topoPath, in.topo, 0o644); err != nil {
		return o, err
	}
	p, err := newPool(w, in, served)
	if err != nil {
		return o, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Minute}

	// Set-up: daemon exec until /healthz answers, setupRepeats times;
	// the last daemon serves the run.
	var (
		d      *daemon
		setups []float64
	)
	defer func() {
		if d != nil {
			d.stop() // error paths only; the success path checks the drain below
		}
	}()
	for k := 0; k < setupRepeats; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return o, err
			}
			tr.CloseIdleConnections()
		}
		t0 := time.Now()
		if d, err = startDaemon(ctx, client, bin, topoPath, w.algo, filepath.Join(dir, fmt.Sprint("addr-", k))); err != nil {
			return o, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if cfg.trace {
			break // the traced run reports no set-up time
		}
	}

	if cfg.trace {
		err = traceServe(ctx, cfg, w, in, ps[0].net, refs, d, client, p, &o)
	} else {
		err = measureServe(ctx, cfg, d, client, p, setups, &o)
	}
	if err != nil {
		return o, err
	}
	if err := d.stop(); err != nil {
		o.fail(fmt.Errorf("edgeschedd did not drain cleanly: %w", err))
		o.res.Correct = false
	}
	d = nil
	return o, nil
}

// measureServe is the untraced serve run: a sequential warm-up pass
// over the pool, then the timed closed loop.
func measureServe(ctx context.Context, cfg config, d *daemon, client *http.Client, p *pool, setups []float64, o *outcome) error {
	var buf bytes.Buffer
	for i := range p.bodies {
		o.res.Attempted++
		if err := p.roundTrip(ctx, client, d.url, i, &buf); err != nil {
			o.fail(err)
			continue
		}
		if err := p.learn(i, buf.Bytes()); err != nil {
			o.fail(err)
		}
	}
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	per := make([]loadStats, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c].drive(ctx, client, d.url, p, c*poolSize/clients, deadline)
		}(c)
	}
	wg.Wait()
	busy := time.Since(start)
	if err := ctx.Err(); err != nil {
		return err
	}
	var lats []float64
	for _, ls := range per {
		lats = append(lats, ls.lats...)
		o.res.Attempted += ls.attempted
		for _, err := range ls.errs {
			o.fail(err)
		}
	}
	o.info.Samples = len(lats)
	m := newMetricSet(endToEnd)
	setE2E(m, lats, busy, setups)
	return o.finish(m)
}

// loadStats is one client's share of the closed loop.
type loadStats struct {
	lats      []float64 // successful round trips, ms
	attempted int64
	errs      []error
}

// drive sends requests back to back, starting at pool index first,
// until the deadline. A round trip is timed from the request body
// handed to the client to the response body fully read.
func (ls *loadStats) drive(ctx context.Context, client *http.Client, url string, p *pool, first int, deadline time.Time) {
	var buf bytes.Buffer
	for i := first; ctx.Err() == nil && time.Now().Before(deadline); i++ {
		k := i % len(p.bodies)
		t0 := time.Now()
		err := p.roundTrip(ctx, client, url, k, &buf)
		lat := time.Since(t0)
		if err == nil {
			err = p.check(k, buf.Bytes())
		}
		ls.attempted++
		if err != nil {
			ls.errs = append(ls.errs, err)
			continue
		}
		ls.lats = append(ls.lats, ms(lat))
	}
}

// pool is a serve workload's request pool with the expected response
// for each request.
type pool struct {
	bodies [][]byte
	full   bool
	path   string // path and query of the request
	refs   []*sched.Schedule
	// want is the SHA-256 of the correct response body: for ?full=1 the
	// reference's trace.WriteScheduleJSON bytes, for compact responses
	// the first response that matched the reference field by field.
	want [][sha256.Size]byte
}

func newPool(w spec, in inputs, refs []*sched.Schedule) (*pool, error) {
	p := &pool{full: w.full, path: "/schedule", refs: refs, want: make([][sha256.Size]byte, len(in.items))}
	if w.full {
		p.path = "/schedule?full=1"
	}
	for i, it := range in.items {
		p.bodies = append(p.bodies, it.graph)
		if w.full {
			h := sha256.New()
			if err := trace.WriteScheduleJSON(h, refs[i]); err != nil {
				return nil, err
			}
			h.Sum(p.want[i][:0])
		}
	}
	return p, nil
}

// roundTrip posts request i and reads the whole response into buf.
func (p *pool) roundTrip(ctx context.Context, client *http.Client, url string, i int, buf *bytes.Buffer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+p.path, bytes.NewReader(p.bodies[i]))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("request %d: reading response: %w", i, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("request %d: HTTP %d: %s", i, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// check reports whether body is the correct response to request i.
func (p *pool) check(i int, body []byte) error {
	if sha256.Sum256(body) == p.want[i] {
		return nil
	}
	if p.full {
		return fmt.Errorf("request %d: full response differs from the reference schedule's JSON", i)
	}
	return compactDiff(body, p.refs[i])
}

// learn checks a warm-up response and, for compact responses, records
// its digest so later responses are checked by hash alone. Not safe
// for concurrent use; the warm-up is sequential.
func (p *pool) learn(i int, body []byte) error {
	if err := p.check(i, body); err != nil {
		return err
	}
	p.want[i] = sha256.Sum256(body)
	return nil
}

// compactResponse mirrors edgeschedd's compact /schedule reply.
type compactResponse struct {
	Algorithm string        `json:"algorithm"`
	Makespan  float64       `json:"makespan"`
	Tasks     []compactTask `json:"tasks"`
	Edges     int           `json:"edges_routed"`
}

type compactTask struct {
	Task   int     `json:"task"`
	Proc   int     `json:"proc"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

// newCompact is the compact reply edgeschedd encodes for s.
func newCompact(s *sched.Schedule) compactResponse {
	r := compactResponse{Algorithm: s.Algorithm, Makespan: s.Makespan, Tasks: make([]compactTask, len(s.Tasks))}
	for i, tp := range s.Tasks {
		r.Tasks[i] = compactTask{Task: int(tp.Task), Proc: int(tp.Proc), Start: tp.Start, Finish: tp.Finish}
	}
	for _, es := range s.Edges {
		if es != nil {
			r.Edges++
		}
	}
	return r
}

// compactDiff compares a compact reply with the reference schedule bit
// for bit.
func compactDiff(body []byte, ref *sched.Schedule) error {
	var got compactResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding compact response: %w", err)
	}
	want := newCompact(ref)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.Algorithm != want.Algorithm || got.Edges != want.Edges || len(got.Tasks) != len(want.Tasks) || !same(got.Makespan, want.Makespan) {
		return fmt.Errorf("compact response (%s, makespan %v, %d tasks, %d edges) differs from the reference (%s, %v, %d, %d)",
			got.Algorithm, got.Makespan, len(got.Tasks), got.Edges, want.Algorithm, want.Makespan, len(want.Tasks), want.Edges)
	}
	for i, g := range got.Tasks {
		r := want.Tasks[i]
		if g.Task != r.Task || g.Proc != r.Proc || !same(g.Start, r.Start) || !same(g.Finish, r.Finish) {
			return fmt.Errorf("compact response task %d %+v differs from the reference %+v", i, g, r)
		}
	}
	return nil
}

// daemon is a running edgeschedd.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed when the process has exited
	err  error         // the process's exit status, set before done closes
}

// startDaemon runs edgeschedd with its defaults apart from the
// topology, algorithm and a loopback address, and returns once
// /healthz answers 200.
func startDaemon(ctx context.Context, client *http.Client, bin, topoPath, algo, addrFile string) (*daemon, error) {
	cmd := exec.Command(bin, "-topology", topoPath, "-algo", algo, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	if err := d.waitHealthy(ctx, client, addrFile); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitHealthy polls for the address file, then for /healthz.
func (d *daemon) waitHealthy(ctx context.Context, client *http.Client, addrFile string) error {
	const poll = 100 * time.Microsecond
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("edgeschedd exited during start-up: %v", d.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("edgeschedd did not answer /healthz within 30s")
		}
		if d.url == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				d.url = "http://" + string(b)
			}
		}
		if d.url != "" {
			if resp, err := client.Get(d.url + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body) // a constant "ok"; drained so the connection is reused
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(poll)
	}
}

// stop sends SIGTERM, waits for the drain, and returns the exit
// status. A daemon that does not exit within 30s is killed. Safe to
// call again after it returned.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return d.err
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
		<-d.done
		return err
	}
	select {
	case <-d.done:
		return d.err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("edgeschedd did not drain within 30s")
	}
}
