package sched

import (
	"repro/internal/dag"
	"repro/internal/network"
)

// FreshSchedule runs a as its one-shot Schedule does, but on a fresh
// state with an empty route cache (newState, the cold oracle) instead
// of a pooled one. Algorithms without a scheduler state run as they
// are. It lets the external tests, which can verify schedules, compare
// pooled one-shot runs against cold ones.
func FreshSchedule(a Algorithm, g *dag.Graph, net *network.Topology) (*Schedule, error) {
	var (
		opts   Options
		name   = a.Name()
		assign []network.NodeID
	)
	switch a := a.(type) {
	case *ListScheduler:
		opts = a.Opts
	case *ClassicReplay:
		ideal, err := NewClassic().Schedule(g, net)
		if err != nil {
			return nil, err
		}
		opts, assign = replayOptions, make([]network.NodeID, len(ideal.Tasks))
		for i, tp := range ideal.Tasks {
			assign[i] = tp.Proc
		}
	default:
		return a.Schedule(g, net)
	}
	s, err := newState(g, net, opts)
	if err != nil {
		return nil, err
	}
	return scheduleOn(s, name, assign)
}
