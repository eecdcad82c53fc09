package sched

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/fptime"
	"repro/internal/linksched"
	"repro/internal/network"
)

// This file implements parallel earliest-finish-time processor
// selection over forked scheduler states. The sequential BA probe loop
// tentatively places a ready task on every processor — each probe
// doing route search plus per-link timeline insertion — and rolls
// back; with |P| processors that is |P| full placements per task, the
// dominant cost of EFT scheduling under the edge-scheduling model.
//
// The parallel engine keeps ProbeWorkers replicas of the scheduler
// state. Every replica applies the same committed placements in the
// same order, so all replicas are bit-identical at the start of each
// selection; the processor candidates are then partitioned among the
// replicas and probed concurrently, each replica using its own
// transaction journal exactly like the sequential path. Because a
// probe's result depends only on the (identical) state, the gathered
// finish times are independent of which replica evaluated them, and a
// deterministic fold — lowest finish time beyond the fptime tolerance,
// ties to the lowest processor ID — makes the chosen processor, and
// therefore the whole schedule, bit-identical at any worker count.

// probeStats counts EFT probe work. The counters are shared by all
// forks of a state and are updated atomically.
type probeStats struct {
	probes atomic.Int64 // tentative placements evaluated
	pruned atomic.Int64 // candidates skipped by the finish lower bound
}

// eftScratch holds the per-selection buffers of selectByEFT so the
// probe loop allocates nothing after the first task.
type eftScratch struct {
	lb     []float64
	finish []float64
	errs   []error
	skip   []bool
	cands  []int
}

func (e *eftScratch) resize(n int) {
	if cap(e.lb) < n {
		e.lb = make([]float64, n)
		e.finish = make([]float64, n)
		e.errs = make([]error, n)
		e.skip = make([]bool, n)
	}
	e.lb = e.lb[:n]
	e.finish = e.finish[:n]
	e.errs = e.errs[:n]
	e.skip = e.skip[:n]
	e.cands = e.cands[:0]
}

// probeWorkers resolves the configured worker count: 0 means
// GOMAXPROCS, anything below 1 is clamped to 1 (sequential).
func probeWorkers(opts Options) int {
	w := opts.ProbeWorkers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Clone returns a deep copy of the scheduling state: an independent
// replica whose timelines, placement records and processor clocks can
// be mutated without affecting the original. The immutable inputs
// (graph, topology, options) are shared, as are the concurrency-safe
// route cache and probe counters. Cloning inside a transaction is a
// bug and panics.
func (s *state) Clone() *state {
	if s.tx != nil {
		panic("sched: Clone inside a transaction")
	}
	c := new(state)
	s.cloneInto(c)
	return c
}

// cloneInto overwrites c with a deep copy of s: reset binds c to s's
// graph, topology, options and route cache — rebuilding c's router
// only when c last served a different topology or cache, dropping its
// cached closures only when the options differ, and resizing its
// journals — and then the columns are copied over, flat per field:
// copyColumn for the placement columns, edgeStore.copyFrom for the edge
// arenas, and the linksched bulk-copy paths for the timeline slabs.
// Every backing buffer c already owns is reused (only the task column
// is allocated afresh by reset), so re-cloning a pooled replica of the
// same problem is copy() work. The replica shares the parent's probe
// counters.
func (s *state) cloneInto(c *state) {
	c.reset(s.g, s.net, s.opts, s.routeCache)
	c.stats = s.stats
	c.procFinish = copyColumn(c.procFinish, s.procFinish)
	c.tasks = copyColumn(c.tasks, s.tasks)
	c.dups = copyColumn(c.dups, s.dups)
	c.edges.copyFrom(&s.edges)
	c.tl = linksched.CopyTimelines(c.tl, s.tl)
	c.bw = linksched.CopyBWTimelines(c.bw, s.bw)
	c.ptl = linksched.CopyTimelines(c.ptl, s.ptl)
}

// statePool recycles scheduler states of every role: fork replicas
// when their run ends, and an Engine's per-request states. A state's
// columns, arenas, timeline slabs, journals and router scratch all keep
// their capacity in the pool; reset makes whatever comes out fit the
// next problem, whatever its shape, topology or policies.
var statePool = sync.Pool{New: func() any { return new(state) }}

// recycle returns s to the pool. The graph and the task and duplicate
// columns belong to the caller (the columns escaped into a Schedule),
// so the pool drops its references to them. A state stuck in a
// transaction is corrupt and is dropped instead.
func recycle(s *state) {
	if s.tx != nil {
		return
	}
	s.g, s.tasks, s.dups = nil, nil, nil
	statePool.Put(s)
}

// fork creates the worker replicas for parallel EFT probing. Called
// once per Schedule run, before any task is placed; releaseForks
// returns the replicas to the pool when the run ends.
func (s *state) fork(workers int) {
	if workers <= 1 {
		return
	}
	if cap(s.forks) < workers-1 {
		s.forks = make([]*state, workers-1)
	}
	s.forks = s.forks[:workers-1]
	for i := range s.forks {
		f := statePool.Get().(*state)
		s.cloneInto(f)
		s.forks[i] = f
	}
}

// releaseForks hands the fork replicas back to the pool. The replicas
// hold no references into the returned Schedule (their columns are
// private copies), so recycling them is safe the moment the run ends.
func (s *state) releaseForks() {
	for i, f := range s.forks {
		s.forks[i] = nil
		recycle(f)
	}
	s.forks = s.forks[:0]
}

// placeAndCommit places tid on proc in this state and every fork.
// Replicas run concurrently; their placements are deterministic
// functions of bit-identical states, so all replicas stay identical.
func (s *state) placeAndCommit(tid dag.TaskID, proc network.NodeID) (float64, error) {
	if len(s.forks) == 0 {
		return s.placeTask(tid, proc)
	}
	var wg sync.WaitGroup
	if cap(s.forkErrs) < len(s.forks) {
		s.forkErrs = make([]error, len(s.forks))
	}
	errs := s.forkErrs[:len(s.forks)]
	for i, f := range s.forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = f.placeTask(tid, proc)
		}()
	}
	finish, err := s.placeTask(tid, proc)
	wg.Wait()
	for _, e := range errs {
		if err == nil && e != nil {
			err = e
		}
	}
	return finish, err
}

// probe tentatively places tid on proc inside a transaction and
// returns the finish time it would achieve; the state is rolled back
// either way. The rollback is deferred so that a panic mid-placement
// still restores the state and closes the transaction — otherwise a
// recovered panic would leave s.tx set and poison the replica for
// every later probe.
func (s *state) probe(tid dag.TaskID, proc network.NodeID) (finish float64, err error) {
	s.begin()
	defer s.rollback()
	finish, err = s.placeTask(tid, proc)
	return finish, err
}

// probeLowerBound returns a provable lower bound on the finish time a
// tentative placement of tid on p can achieve: the task cannot start
// before its ready time, nor — under append placement, where the
// processor clock only grows — before the processor's current finish,
// and it must run for its full duration on p.
func (s *state) probeLowerBound(tid dag.TaskID, p network.NodeID, ready float64) float64 {
	start := ready
	if s.opts.TaskPolicy == TaskAppend {
		if f := s.procFinish[p]; f > start {
			start = f
		}
	}
	return start + s.g.Task(tid).Cost/s.net.Node(p).Speed
}

// probeError wraps a failed tentative placement with the processor it
// failed on, so a sweep failure names the culprit instead of the bare
// routing error.
func (s *state) probeError(tid dag.TaskID, p network.NodeID, err error) error {
	return fmt.Errorf("sched: EFT probe of task %d on processor %s (node %d): %w",
		tid, s.net.Node(p).Name, p, err)
}

// selectByEFT tentatively schedules the task on every processor and
// keeps the earliest finish (BA's policy). Three refinements over the
// plain probe loop, none of which changes the selected processor:
//
//   - A pilot probe: the processor with the smallest finish lower
//     bound is probed first and its achieved finish becomes the
//     pruning bound.
//   - Safe pruning: processors whose lower bound exceeds the pilot's
//     finish by more than the fptime tolerance cannot win the fold and
//     are skipped. The bound is deliberately NOT tightened with later
//     probe results: a fixed bound makes the probed set — and the
//     schedule — identical at every ProbeWorkers setting.
//   - Parallel probing: surviving candidates are partitioned over the
//     forked replicas and probed concurrently.
//
// The final fold scans processors in ID order keeping the earliest
// finish beyond the fptime tolerance, so ties break to the lowest
// processor ID exactly as in the sequential loop. This is the
// canonical conforming deterministic fold the detfold analyzer checks
// other merges against.
//
// edgelint:detfold
func (s *state) selectByEFT(tid dag.TaskID) (network.NodeID, error) {
	procs := s.net.Processors()
	if len(procs) == 1 {
		// The sole processor is selected by its (trivial) placement:
		// count it as one evaluated placement so probe totals agree
		// between 1-processor and n-processor topologies (|P| minus
		// pruned probes per task either way).
		s.stats.probes.Add(1)
		return procs[0], nil
	}
	ready := s.readyTime(tid)
	s.eft.resize(len(procs))
	lb, finish, errs, skip := s.eft.lb, s.eft.finish, s.eft.errs, s.eft.skip

	pilot := 0
	for i, p := range procs {
		lb[i] = s.probeLowerBound(tid, p, ready)
		// edgelint:ignore floateq, detfold — exact argmin, first-wins
		// ties; any deterministic pilot is valid, its finish only prunes.
		if lb[i] < lb[pilot] {
			pilot = i
		}
	}
	bound, err := s.probe(tid, procs[pilot])
	if err != nil {
		return -1, s.probeError(tid, procs[pilot], err)
	}

	cands := s.eft.cands
	for i := range procs {
		skip[i] = false
		errs[i] = nil
		if i == pilot {
			continue
		}
		if fptime.LessEps(bound, lb[i]) {
			// Even the lower bound loses to the pilot by more than the
			// tolerance: the fold below could never pick this
			// processor, so the probe is pure waste.
			skip[i] = true
			s.stats.pruned.Add(1)
			continue
		}
		cands = append(cands, i)
	}
	s.eft.cands = cands
	s.stats.probes.Add(int64(len(cands)) + 1)

	if len(cands) > 0 {
		workers := 1 + len(s.forks)
		if workers > len(cands) {
			workers = len(cands)
		}
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st := s.forks[w-1]
				for j := w; j < len(cands); j += workers {
					i := cands[j]
					finish[i], errs[i] = st.probe(tid, procs[i])
				}
			}()
		}
		for j := 0; j < len(cands); j += workers {
			i := cands[j]
			finish[i], errs[i] = s.probe(tid, procs[i])
		}
		wg.Wait()
	}

	for i, p := range procs {
		if errs[i] != nil {
			return -1, s.probeError(tid, p, errs[i])
		}
	}
	best := network.NodeID(-1)
	bestFinish := math.Inf(1)
	for i, p := range procs {
		var f float64
		switch {
		case i == pilot:
			f = bound
		case skip[i]:
			continue
		default:
			f = finish[i]
		}
		if fptime.LessEps(f, bestFinish) {
			bestFinish = f
			best = p
		}
	}
	return best, nil
}
