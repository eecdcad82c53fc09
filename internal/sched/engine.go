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
// A one-shot ListScheduler.Schedule rebuilds its world per call — a
// fresh route cache (so BFS route work is re-done every run), fresh
// timeline columns, fresh journals, a fresh router. The engine splits
// that world by ownership instead:
//
//   - shared immutable: the Topology, the Options and the warmed
//     RouteCache. The topology is frozen after construction, routes
//     are pure functions of it, and the cache is concurrency-safe and
//     sharded, so every request may read them at once.
//   - slot-owned mutable: one scheduler state (timeline columns,
//     columnar edge arenas, transaction journals, router scratch) per
//     worker slot. A request receives a slot's state on admission and
//     hands it back when it ends; reset, the one state initializer,
//     rebinds it to the request's graph, so steady-state requests reuse
//     the arena capacity of their predecessors instead of reallocating
//     it. The engine holds the states outright, so garbage collection
//     never takes them and the engine never builds more than
//     MaxConcurrent of them.
//   - per request: the task placements and the materialized Schedule,
//     which escape to the caller and are always freshly allocated.
//
// Determinism is unchanged: a state never crosses goroutines while in
// use and the shared cache only memoizes pure functions, so every
// engine schedule is bit-identical to a cold one-shot run.
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
	// WarmRoutes precomputes the BFS route of every ordered processor
	// pair at construction, so even the first requests hit the cache.
	// Skipped (routes warm on demand) when the pair count exceeds the
	// cache capacity — warming would only evict itself.
	WarmRoutes bool
	// SelfCheckEvery, when N > 0, re-runs every Nth request cold — a
	// fresh single-threaded state with a private route cache — and
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

	CacheHits       int64   // shared route cache hits
	CacheMisses     int64   // shared route cache misses
	CacheHitRate    float64 // hits / (hits+misses), 0 before any lookup
	CacheLen        int     // cached routes
	CacheShards     int     // lock shards
	CacheContention int64   // lock acquisitions that had to wait
}

// Engine is a long-lived, concurrency-safe scheduling engine: it loads
// one immutable Topology plus one policy set and serves many
// Schedule(dag) calls in parallel against a shared warmed route cache,
// each on the scheduler state of the worker slot it holds. See the
// file comment for the ownership discipline. Create with NewEngine;
// Drain before discarding if callers may still be scheduling.
type Engine struct {
	name  string
	opts  Options
	net   *network.Topology
	cache *network.RouteCache

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
	// The shared route cache covers every ordered processor pair
	// (clamped to [DefaultRouteCacheSize, 1<<22]) over a power of two
	// near 4×workers lock shards, so concurrent lookups of distinct
	// pairs rarely share a mutex.
	procs := net.NumProcessors()
	pairs := procs * (procs - 1)
	size := min(max(pairs, network.DefaultRouteCacheSize), 1<<22)
	e := &Engine{
		name:           name,
		opts:           eo.Opts,
		net:            net,
		cache:          network.NewRouteCache(size, min(4*workers, 256)),
		maxQueue:       eo.MaxQueue,
		slots:          make(chan *state, workers),
		selfCheckEvery: eo.SelfCheckEvery,
	}
	for range workers {
		e.slots <- new(state)
	}
	if eo.WarmRoutes && pairs <= size {
		e.warmRoutes()
	}
	return e, nil
}

// warmRoutes fills the shared cache with the BFS route of every
// ordered processor pair. Routes are pure functions of the topology,
// so warming changes nothing but first-request latency.
func (e *Engine) warmRoutes() {
	r := e.net.NewRouter(e.cache)
	procs := e.net.Processors()
	for _, src := range procs {
		for _, dst := range procs {
			if src != dst {
				// edgelint:ignore errflow — warming is best-effort; an
				// unroutable pair caches its error and requests that
				// need the pair will surface it.
				_, _ = r.BFSRoute(src, dst)
			}
		}
	}
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

// ScheduleBatch schedules the graphs in order on ONE worker slot and
// its state, amortizing admission and journal resizing across many
// small DAGs. Results align positionally with gs; the first error
// aborts the batch. Each schedule is bit-identical to its own one-shot
// run — batching shares warmth, not state: the state is fully reset
// between graphs.
func (e *Engine) ScheduleBatch(gs []*dag.Graph) ([]*Schedule, error) {
	if err := e.begin(); err != nil {
		return nil, err
	}
	defer e.inflight.Done()
	st, err := e.acquire()
	if err != nil {
		e.rejected.Add(1)
		return nil, err
	}
	defer e.release(st)
	out := make([]*Schedule, len(gs))
	for i, g := range gs {
		s, err := e.run(g, st)
		if err != nil {
			return nil, fmt.Errorf("sched: batch graph %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
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
// so it runs even when a request panics: a state still inside a
// transaction is corrupt, and the slot gets a zero state instead, never
// losing the slot and never handing the next request a broken state.
// The graph and the task and duplicate columns belong to the finished
// request's caller (the columns escaped into its Schedule), so the slot
// drops its references to them.
func (e *Engine) release(s *state) {
	if s.tx != nil {
		s = new(state)
	}
	s.g, s.tasks, s.dups = nil, nil, nil
	e.active.Add(-1)
	e.slots <- s
}

// run schedules one graph on s, the state of the caller's worker slot:
// reset rebinds it to the engine's topology, options and shared cache
// (a state bound for the first time counts as cold), and every
// SelfCheckEvery'th request is re-run cold by the oracle.
func (e *Engine) run(g *dag.Graph, s *state) (*Schedule, error) {
	e.requests.Add(1)
	seq := e.reqSeq.Add(1)
	var out *Schedule
	err := g.Validate()
	if err == nil {
		if s.reset(g, e.net, e.opts, e.cache) {
			e.coldStates.Add(1)
		}
		out, err = scheduleOn(s, e.name)
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

// selfCheck re-runs the request cold — fresh state, private route
// cache — and fails with ErrSelfCheck if the engine's schedule is not
// bit-identical. This is the serving-path twin of the rollback oracle:
// it turns "state reuse and sharing change nothing" into a checked
// runtime contract.
func (e *Engine) selfCheck(g *dag.Graph, got *Schedule) error {
	e.selfChecks.Add(1)
	s, err := newState(g, e.net, e.opts)
	if err != nil {
		return fmt.Errorf("%w: setup: %w", ErrSelfCheck, err)
	}
	want, err := scheduleOn(s, e.name)
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
	hits, misses := e.cache.Stats()
	st := EngineStats{
		Requests:        e.requests.Load(),
		Failures:        e.failures.Load(),
		Rejected:        e.rejected.Load(),
		InFlight:        e.active.Load(),
		ColdState:       e.coldStates.Load(),
		SelfChecks:      e.selfChecks.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
		CacheHitRate:    e.cache.HitRate(),
		CacheLen:        e.cache.Len(),
		CacheShards:     e.cache.NumShards(),
		CacheContention: e.cache.Contention(),
	}
	return st
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
