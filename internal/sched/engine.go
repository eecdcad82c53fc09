package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/network"
)

// This file implements the long-lived scheduling engine: one immutable
// topology loaded once, many Schedule(dag) calls served concurrently.
// A one-shot ListScheduler.Schedule borrows a warm state from a process
// pool for the length of one call, which the garbage collector may
// empty at any time, and validates the topology and options per call.
// The engine splits the world by ownership instead:
//
//   - shared immutable: the Topology and the Options. Both are frozen
//     after construction, so every request may read them at once.
//   - slot-owned mutable: one scheduler state (timeline columns,
//     columnar edge arenas, transaction journals, router scratch and
//     its BFS route cache) per worker slot. A request receives a
//     slot's state on admission and hands it back when it ends; reset,
//     the one state initializer, rebinds it to the request's graph, so
//     steady-state requests reuse the arena capacity and warm routes of
//     their predecessors instead of rebuilding them. The engine holds
//     the states outright, so garbage collection never takes them and
//     the engine never builds more than MaxConcurrent of them.
//   - per request: the task placements and the materialized Schedule,
//     which escape to the caller and are always freshly allocated.
//
// Determinism is unchanged: a state never crosses goroutines while in
// use, routes are copied into and out of its edge arena, and its route
// cache only memoizes pure functions of the topology, so every engine
// schedule is bit-identical to a run on a fresh state.
// SelfCheckEvery turns that claim into a runtime oracle. Parallelism
// lives across requests, never inside one.

// ErrEngineClosed is returned by Schedule after Drain (or Close) has
// begun: the engine finishes in-flight requests but admits no new ones.
var ErrEngineClosed = errors.New("sched: engine draining")

// ErrOverloaded is returned when admission control rejects a request
// because MaxQueue requests are already waiting for a worker slot.
var ErrOverloaded = errors.New("sched: engine overloaded")

// ErrSelfCheck marks a request whose cold re-run (SelfCheckEvery) did
// not reproduce the engine's schedule: a fault in the engine, not in
// the request.
var ErrSelfCheck = errors.New("sched: engine self-check failed")

// EngineOptions configures a scheduling engine.
type EngineOptions struct {
	// Name is the display name stamped on produced schedules. Empty
	// defaults to "engine".
	Name string
	// Opts selects the scheduling policies, exactly as for NewCustom.
	// Each request runs them sequentially on its slot's state; the
	// engine's parallelism comes from concurrent requests.
	Opts Options
	// MaxConcurrent bounds the requests scheduled simultaneously, and
	// so the scheduler states the engine owns (one per worker slot).
	// 0 uses GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds the requests allowed to wait for a worker slot
	// before Schedule fails fast with ErrOverloaded. 0 means unbounded
	// waiting (backpressure by blocking).
	MaxQueue int
	// WarmRoutes precomputes, in every worker slot's route cache, the
	// BFS route of every ordered processor pair at construction, so
	// even the first request on a slot hits its cache. Skipped (routes
	// warm on demand) when the pair count exceeds the cache capacity —
	// warming would only empty the cache again.
	WarmRoutes bool
	// SelfCheckEvery, when N > 0, re-runs every Nth request cold — a
	// fresh single-threaded state with an empty route cache — and
	// fails the request if the engine's schedule is not bit-identical.
	// The determinism oracle for serving: leave it on at a generous N
	// in production, or 1 in tests.
	SelfCheckEvery int
}

// EngineStats is a snapshot of the engine's counters.
type EngineStats struct {
	Requests  int64 // admitted requests (incl. failures)
	Failures  int64 // requests that returned an error
	Rejected  int64 // requests refused by admission control
	InFlight  int64 // requests currently holding a worker slot
	ColdState int64 // requests whose slot state was bound afresh (at most MaxConcurrent)

	SelfChecks int64 // cold re-runs performed by the determinism oracle
}

// Engine is a long-lived, concurrency-safe scheduling engine: it loads
// one immutable Topology plus one policy set and serves many
// Schedule(dag) calls in parallel, each on the scheduler state (and
// route cache) of the worker slot it holds. See the file comment for
// the ownership discipline. Create with NewEngine; Drain before
// discarding if callers may still be scheduling.
type Engine struct {
	name string
	opts Options
	net  *network.Topology

	maxQueue int
	slots    chan *state  // worker slots, each carrying the state it owns
	waiting  atomic.Int64 // requests blocked on slots

	mu       sync.RWMutex // guards closed vs inflight.Add
	closed   bool
	inflight sync.WaitGroup

	selfCheckEvery int

	requests   atomic.Int64
	failures   atomic.Int64
	rejected   atomic.Int64
	active     atomic.Int64
	coldStates atomic.Int64
	selfChecks atomic.Int64
	reqSeq     atomic.Uint64
}

// NewEngine validates the topology once and builds an engine serving
// the given policies against it. The topology must not be mutated for
// the engine's lifetime (the frozen-after-construction contract all
// schedulers already rely on).
func NewEngine(net *network.Topology, eo EngineOptions) (*Engine, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := eo.Opts.validate(); err != nil {
		return nil, err
	}
	if eo.SelfCheckEvery < 0 {
		return nil, fmt.Errorf("sched: negative SelfCheckEvery %d", eo.SelfCheckEvery)
	}
	name := eo.Name
	if name == "" {
		name = "engine"
	}
	workers := eo.MaxConcurrent
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		name:           name,
		opts:           eo.Opts,
		net:            net,
		maxQueue:       eo.MaxQueue,
		slots:          make(chan *state, workers),
		selfCheckEvery: eo.SelfCheckEvery,
	}
	for range workers {
		s := new(state)
		if eo.WarmRoutes {
			s.router = net.NewRouter(network.NewRouteCache())
			s.router.Warm(net.Processors())
		}
		e.slots <- s
	}
	return e, nil
}

// Name returns the display name stamped on produced schedules.
func (e *Engine) Name() string { return e.name }

// Topology returns the engine's (immutable) topology.
func (e *Engine) Topology() *network.Topology { return e.net }

// Schedule maps every task of g onto a processor and every
// inter-processor edge onto a route of links, exactly as the matching
// one-shot scheduler would, and returns the complete schedule. Safe
// for concurrent use; requests beyond MaxConcurrent wait their turn
// (or fail fast with ErrOverloaded once MaxQueue are already waiting).
// After Drain it fails with ErrEngineClosed.
func (e *Engine) Schedule(g *dag.Graph) (*Schedule, error) {
	if err := e.begin(); err != nil {
		return nil, err
	}
	defer e.inflight.Done()
	s, err := e.acquire()
	if err != nil {
		e.rejected.Add(1)
		return nil, err
	}
	defer e.release(s)
	return e.run(g, s)
}

// begin gates admission on the drain flag and registers the request
// in-flight. The RWMutex pairs the closed check with inflight.Add so
// Drain's Wait cannot race a late Add.
func (e *Engine) begin() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrEngineClosed
	}
	e.inflight.Add(1)
	return nil
}

// acquire takes a worker slot and the state it owns, failing fast
// when the waiting line exceeds MaxQueue.
func (e *Engine) acquire() (*state, error) {
	var s *state
	select {
	case s = <-e.slots:
	default:
		if e.maxQueue > 0 && e.waiting.Load() >= int64(e.maxQueue) {
			return nil, ErrOverloaded
		}
		e.waiting.Add(1)
		s = <-e.slots
		e.waiting.Add(-1)
	}
	e.active.Add(1)
	return s, nil
}

// release hands the slot back with its state. It is always deferred,
// so it runs even when a request panics: a state the run left unfit
// for reuse (state.release) is replaced by a zero state, so the slot is
// never lost and the next request never gets a broken state.
func (e *Engine) release(s *state) {
	if !s.release() {
		s = new(state)
	}
	e.active.Add(-1)
	e.slots <- s
}

// run schedules one graph on s, the state of the caller's worker slot:
// state.run rebinds it to the engine's topology and options (a state
// bound for the first time counts as cold), and every SelfCheckEvery'th
// request is re-run cold by the oracle.
func (e *Engine) run(g *dag.Graph, s *state) (*Schedule, error) {
	e.requests.Add(1)
	seq := e.reqSeq.Add(1)
	out, rebound, err := s.run(g, e.net, e.opts, e.name, nil)
	if rebound {
		e.coldStates.Add(1)
	}
	if n := e.selfCheckEvery; err == nil && n > 0 && seq%uint64(n) == 0 {
		err = e.selfCheck(g, out)
	}
	if err != nil {
		e.failures.Add(1)
		return nil, err
	}
	return out, nil
}

// selfCheck re-runs the request cold — fresh state, empty route
// cache — and fails with ErrSelfCheck if the engine's schedule is not
// bit-identical. It turns "state reuse and sharing change nothing" into
// a checked runtime contract.
func (e *Engine) selfCheck(g *dag.Graph, got *Schedule) error {
	e.selfChecks.Add(1)
	s, err := newState(g, e.net, e.opts)
	if err != nil {
		return fmt.Errorf("%w: setup: %w", ErrSelfCheck, err)
	}
	want, err := scheduleOn(s, e.name, nil)
	if err != nil {
		return fmt.Errorf("%w: cold run: %w", ErrSelfCheck, err)
	}
	if d := DiffSchedules(want, got); d != "" {
		return fmt.Errorf("%w: schedule diverged from cold run: %s", ErrSelfCheck, d)
	}
	return nil
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Requests:   e.requests.Load(),
		Failures:   e.failures.Load(),
		Rejected:   e.rejected.Load(),
		InFlight:   e.active.Load(),
		ColdState:  e.coldStates.Load(),
		SelfChecks: e.selfChecks.Load(),
	}
}

// Drain stops admitting new requests and blocks until every in-flight
// request has finished. Idempotent; Schedule returns ErrEngineClosed
// afterwards (and immediately on concurrent calls that lose the race).
func (e *Engine) Drain() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.inflight.Wait()
}
