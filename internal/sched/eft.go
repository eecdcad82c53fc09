package sched

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/fptime"
	"repro/internal/network"
)

// This file implements earliest-finish-time processor selection (BA-EFT
// and the ProcSelectEFT ablation). Each candidate processor is probed by
// a tentative placement inside a transaction — route search plus
// per-link timeline insertion — that is rolled back, so with |P|
// processors a task costs up to |P| full placements. The paper's BA,
// OIHSA and BBSA choose processors in closed form (selectByEstimate)
// and never get here.

// probe tentatively places tid on proc inside a transaction and
// returns the finish time it would achieve; the state is rolled back
// either way. The rollback is deferred so that a panic mid-placement
// still restores the state and closes the transaction — otherwise a
// recovered panic would leave s.tx set and poison the state for every
// later probe.
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
// keeps the earliest finish (BA's policy). Two refinements over the
// plain probe loop, neither of which changes the selected processor:
//
//   - A pilot probe: the processor with the smallest finish lower
//     bound is probed first and its achieved finish becomes the
//     pruning bound.
//   - Safe pruning: processors whose lower bound exceeds the pilot's
//     finish by more than the fptime tolerance cannot win the fold and
//     are skipped. The bound is fixed at the pilot's finish, so the
//     probed set depends only on the state, never on probe order.
//
// The fold scans processors in ID order keeping the earliest finish
// beyond the fptime tolerance, so ties break to the lowest processor
// ID (TestProcessorChoiceBreaksNearTiesLow).
func (s *state) selectByEFT(tid dag.TaskID) (network.NodeID, error) {
	net, procs := s.net, s.net.NumProcessors()
	if procs == 1 {
		// The sole processor is selected by its (trivial) placement:
		// count it as one evaluated placement so probe totals agree
		// between 1-processor and n-processor topologies (|P| minus
		// pruned probes per task either way).
		s.probes++
		return net.Processor(0), nil
	}
	ready := s.readyTime(tid)
	s.eftLB = sizeColumn(s.eftLB, procs)
	lb := s.eftLB

	pilot := 0
	for i := range procs {
		lb[i] = s.probeLowerBound(tid, net.Processor(i), ready)
		// edgelint:ignore floateq — exact argmin, first-wins
		// ties; any deterministic pilot is valid, its finish only prunes.
		if lb[i] < lb[pilot] {
			pilot = i
		}
	}
	bound, err := s.probe(tid, net.Processor(pilot))
	if err != nil {
		return -1, s.probeError(tid, net.Processor(pilot), err)
	}
	s.probes++

	best := network.NodeID(-1)
	bestFinish := math.Inf(1)
	for i := range procs {
		p, f := net.Processor(i), bound
		if i != pilot {
			if fptime.LessEps(bound, lb[i]) {
				// Even the lower bound loses to the pilot by more than
				// the tolerance: the fold could never pick this
				// processor, so the probe is pure waste.
				s.pruned++
				continue
			}
			s.probes++
			if f, err = s.probe(tid, p); err != nil {
				return -1, s.probeError(tid, p, err)
			}
		}
		if fptime.LessEps(f, bestFinish) {
			bestFinish = f
			best = p
		}
	}
	return best, nil
}
