package sched

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
)

// checkSlackColumn demands that every link timeline's stored slack
// column holds, slot for slot, exactly the deferrable time slackOf
// derives from the owner edge's current legs — the invariant optimal
// insertion relies on when it reads the column instead of asking.
func checkSlackColumn(t *testing.T, s *state, ctx string) {
	t.Helper()
	for lid := range s.net.NumLinks() {
		slots, col := s.tl[lid].Slots(), s.tl[lid].Slack()
		if len(slots) > 0 && len(col) != len(slots) {
			t.Fatalf("%s: link %d holds %d slots but %d slack entries", ctx, lid, len(slots), len(col))
		}
		for i, sl := range slots {
			// edgelint:ignore floateq — the column must be bit-identical.
			if want := s.slackOf(sl.Owner); col[i] != want {
				t.Fatalf("%s: link %d slot %d (edge %d leg %d) stores slack %v, slackOf gives %v",
					ctx, lid, i, sl.Owner.Edge, sl.Owner.Leg, col[i], want)
			}
		}
	}
}

// TestSlackColumnMatchesClosure places random DAGs task by task under
// every optimal-insertion option set and checks the slack column after
// each placement. The EFT preset probes every processor inside a
// transaction, so rolled-back placements must leave the column exactly
// as they found it; the hop-delay, store-and-forward and task-insertion
// variants change the slack formula's inputs.
//
// edgelint:ignore verifysched — in-package (verify would cycle); the
// same presets run under the full validator in sched_test.go.
func TestSlackColumnMatchesClosure(t *testing.T) {
	oihsa := NewOIHSA().Opts
	eft := oihsa
	eft.ProcSelect = ProcSelectEFT
	hop := oihsa
	hop.HopDelay = 0.5
	saf := oihsa
	saf.Switching = StoreAndForward
	ins := oihsa
	ins.TaskPolicy = TaskInsertion
	cases := map[string]Options{
		"OIHSA":             oihsa,
		"EFT-optimal":       eft,
		"hop-delay":         hop,
		"store-and-forward": saf,
		"task-insertion":    ins,
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				r := rand.New(rand.NewSource(seed))
				g := dag.RandomLayered(r, dag.RandomLayeredParams{
					Tasks:    60,
					TaskCost: dag.CostDist{Lo: 1, Hi: 20},
					EdgeCost: dag.CostDist{Lo: 10, Hi: 300},
				})
				// A switched cluster, and a processor line whose routes run
				// up to four links, so legs past the first get deferred and
				// move their predecessor legs' slack.
				net := network.RandomCluster(r, network.RandomClusterParams{Processors: 4})
				if seed == 3 {
					net = network.Line(5, network.Uniform(1), network.Uniform(1))
				}
				s := mkState(t, g, net, opts)
				withSlack := 0
				for _, tid := range priorityOrder(g, opts.Priority) {
					proc, err := s.selectProcessor(tid)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := s.placeTask(tid, proc); err != nil {
						t.Fatal(err)
					}
					checkSlackColumn(t, s, name)
					for lid := range s.tl {
						for _, v := range s.tl[lid].Slack() {
							if v > 0 {
								withSlack++
							}
						}
					}
				}
				if withSlack == 0 {
					t.Fatalf("seed %d: no slot ever held slack; the case tests nothing", seed)
				}
			}
		})
	}
}
