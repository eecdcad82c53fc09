package sched_test

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/verify"
)

// TestDuplicatesReachTheSchedule pins that every state-backed entry
// point hands its duplicated source tasks to the returned Schedule.
// With Options.Duplication set, an edge satisfied by a duplicate has no
// network schedule; if the Schedule drops the duplicate, the validator
// rightly reports that edge as an unrouted cross-processor transfer.
func TestDuplicatesReachTheSchedule(t *testing.T) {
	// A cheap source fanning out to three unequal children over edges
	// dearer than the source itself: re-running the source beats
	// shipping its data, so every child placed away from the source
	// duplicates it.
	g := dag.New()
	src := g.AddTask("src", 1)
	for i, cost := range []float64{100, 90, 80} {
		c := g.AddTask(string(rune('a'+i)), cost)
		g.AddEdge(src, c, 50)
	}
	net := network.Star(3, network.Uniform(1), network.Uniform(1))
	p := net.Processors()

	dup := sched.NewOIHSA().Opts
	dup.Duplication = true

	assigned, err := sched.ScheduleAssignment(g, net, []network.NodeID{p[0], p[0], p[1], p[2]}, dup, "assigned")
	if err != nil {
		t.Fatal(err)
	}
	dls, err := (&sched.DLS{Opts: dup}).Schedule(g, net)
	if err != nil {
		t.Fatal(err)
	}
	cpop, err := (&sched.CPOP{Opts: dup}).Schedule(g, net)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*sched.Schedule{assigned, dls, cpop} {
		if res := verify.Verify(s); !res.OK() {
			t.Fatalf("%s: invalid schedule: %v", s.Algorithm, res)
		}
		if len(s.Duplicates) == 0 {
			t.Fatalf("%s: no duplicate placed; the instance no longer exercises duplication", s.Algorithm)
		}
	}
}
