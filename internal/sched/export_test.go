package sched

import (
	"repro/internal/dag"
	"repro/internal/network"
)

// FreshSchedule runs a as its one-shot Schedule does, but on a fresh
// state whose router holds no BFS tree (the self-check's cold run) instead
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
	opts, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	out, _, err := new(state).run(g, net, opts, name, assign)
	return out, err
}

// ProcessorIDs returns net's processors in the order they were added.
func ProcessorIDs(net *network.Topology) []network.NodeID {
	ps := make([]network.NodeID, net.NumProcessors())
	for i := range ps {
		ps[i] = net.Processor(i)
	}
	return ps
}

// PresetOptions returns the edge-scheduling options a's one-shot run
// uses: a list scheduler's own, or the replay options for the classic
// presets, whose edges ScheduleAssignment places under them.
func PresetOptions(a Algorithm) Options {
	if l, ok := a.(*ListScheduler); ok {
		return l.Opts
	}
	return replayOptions
}
