package sched

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/fptime"
	"repro/internal/network"
)

// eftInstance builds a random DAG/topology pair for the EFT tests.
func eftInstance(seed int64) (*dag.Graph, *network.Topology) {
	r := rand.New(rand.NewSource(seed))
	g := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    25,
		TaskCost: dag.CostDist{Lo: 1, Hi: 50},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
	})
	net := network.Star(4, network.Uniform(1), network.Uniform(1))
	return g, net
}

// eftOptionSets are the engine/policy combinations the probe tests
// cover: every engine under both task policies (the insertion rows of
// optimal insertion and the bandwidth ledger route with Dijkstra, whose
// relaxation reads the timelines a probe has written), plus
// duplication, which requires append placement.
func eftOptionSets() map[string]Options {
	return map[string]Options{
		"slots-basic":   {ProcSelect: ProcSelectEFT},
		"slots-optimal": {ProcSelect: ProcSelectEFT, Insertion: InsertionOptimal, EdgeOrder: EdgeOrderDescCost},
		"bandwidth":     {ProcSelect: ProcSelectEFT, Engine: EngineBandwidth},
		"packets":       {ProcSelect: ProcSelectEFT, Engine: EnginePackets, PacketSize: 40},
		"insertion":     {ProcSelect: ProcSelectEFT, TaskPolicy: TaskInsertion},
		"optimal-insertion": {Routing: RoutingDijkstra, ProcSelect: ProcSelectEFT, Insertion: InsertionOptimal,
			EdgeOrder: EdgeOrderDescCost, TaskPolicy: TaskInsertion},
		"bandwidth-insertion": {Routing: RoutingDijkstra, ProcSelect: ProcSelectEFT, Engine: EngineBandwidth,
			TaskPolicy: TaskInsertion},
		"packets-insertion": {ProcSelect: ProcSelectEFT, Engine: EnginePackets, PacketSize: 40,
			TaskPolicy: TaskInsertion},
		"duplication": {ProcSelect: ProcSelectEFT, Duplication: true},
	}
}

// TestClonePlacementEqualsTxnProbe is the probe property test: at
// every scheduling step, placing the task for real on a clone of the
// state — a second state rebuilt by replaying the committed placements
// — must yield exactly the finish time the original computes with a
// transaction probe, and the probes must leave the original bit-for-bit
// untouched (an empty fingerprint diff). A store that bypasses its
// journaling mutator fails one of the two: the probe reads its own
// stale write, or rollback leaves it behind.
func TestClonePlacementEqualsTxnProbe(t *testing.T) {
	type commit struct {
		tid  dag.TaskID
		proc network.NodeID
	}
	// The line's routes run up to five links, so an optimal insertion
	// can shift a middle leg and rewrite the slack of the leg before it,
	// on a link the probe does not otherwise touch: a slack store that
	// bypasses timeline shows only there.
	line := network.Line(6, network.Uniform(1), network.Uniform(1))
	for name, opts := range eftOptionSets() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				g, star := eftInstance(seed)
				for _, net := range []*network.Topology{star, line} {
					s := mkState(t, g, net, opts)
					order, err := g.PriorityOrder()
					if err != nil {
						t.Fatal(err)
					}
					var committed []commit
					for _, tid := range order {
						fp := s.captureFingerprint()
						for pi := range net.NumProcessors() {
							p := net.Processor(pi)
							want, werr := s.probe(tid, p)
							c := mkState(t, g, net, opts)
							for _, cm := range committed {
								if _, err := c.placeTask(cm.tid, cm.proc); err != nil {
									t.Fatal(err)
								}
							}
							got, gerr := c.placeTask(tid, p)
							if (werr == nil) != (gerr == nil) {
								t.Fatalf("seed %d task %d proc %v: clone err %v, probe err %v", seed, tid, p, gerr, werr)
							}
							if werr == nil && got != want {
								t.Fatalf("seed %d task %d proc %v: clone finish %v, probe finish %v", seed, tid, p, got, want)
							}
						}
						if d := fp.diff(s); d != "" {
							t.Fatalf("seed %d task %d: probing mutated the original state: %s", seed, tid, d)
						}
						proc, err := s.selectProcessor(tid)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := s.placeTask(tid, proc); err != nil {
							t.Fatal(err)
						}
						committed = append(committed, commit{tid, proc})
					}
				}
			}
		})
	}
}

// referenceEFT is the original unpruned sequential policy: probe every
// processor, keep the earliest finish beyond the fptime tolerance.
func referenceEFT(t *testing.T, s *state, tid dag.TaskID) network.NodeID {
	t.Helper()
	best := network.NodeID(-1)
	bestFinish := math.Inf(1)
	for pi := range s.net.NumProcessors() {
		p := s.net.Processor(pi)
		finish, err := s.probe(tid, p)
		if err != nil {
			t.Fatal(err)
		}
		if fptime.LessEps(finish, bestFinish) {
			bestFinish = finish
			best = p
		}
	}
	return best
}

// TestEFTPruningMatchesReference steps two identical states through a
// schedule, one with the pruned selectByEFT and one with the exhaustive
// reference, asserting the same processor choice at every step — and
// that the pruning actually fires.
func TestEFTPruningMatchesReference(t *testing.T) {
	totalPruned := int64(0)
	for seed := int64(1); seed <= 5; seed++ {
		g, net := eftInstance(seed)
		s := mkState(t, g, net, Options{ProcSelect: ProcSelectEFT})
		ref := mkState(t, g, net, Options{ProcSelect: ProcSelectEFT})
		order, err := g.PriorityOrder()
		if err != nil {
			t.Fatal(err)
		}
		for _, tid := range order {
			got, err := s.selectByEFT(tid)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceEFT(t, ref, tid)
			if got != want {
				t.Fatalf("seed %d task %d: pruned EFT chose %v, reference chose %v", seed, tid, got, want)
			}
			if _, err := s.placeTask(tid, got); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.placeTask(tid, want); err != nil {
				t.Fatal(err)
			}
		}
		totalPruned += s.pruned
		if s.probes <= 0 {
			t.Fatalf("seed %d: probe counter not incremented", seed)
		}
	}
	if totalPruned == 0 {
		t.Fatal("lower-bound pruning never fired across any seed; the bound is vacuous")
	}
}

// TestProbeStatsAgreeAcrossTopologySizes pins the probe accounting
// invariant: every task's selection evaluates |P| placements, as
// probes + pruned. The 1-processor early return used to skip the
// counter entirely, so reported probe counts disagreed between
// 1-processor and n-processor topologies.
func TestProbeStatsAgreeAcrossTopologySizes(t *testing.T) {
	g, _ := eftInstance(2)
	for name, net := range map[string]*network.Topology{
		"1-proc": network.Line(1, network.Uniform(1), network.Uniform(1)),
		"4-proc": network.Star(4, network.Uniform(1), network.Uniform(1)),
	} {
		s := mkState(t, g, net, Options{ProcSelect: ProcSelectEFT})
		order, err := g.PriorityOrder()
		if err != nil {
			t.Fatal(err)
		}
		for _, tid := range order {
			proc, err := s.selectByEFT(tid)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.placeTask(tid, proc); err != nil {
				t.Fatal(err)
			}
		}
		total := s.probes + s.pruned
		want := int64(g.NumTasks() * net.NumProcessors())
		if total != want {
			t.Fatalf("%s: probes(%d) + pruned(%d) = %d, want tasks×|P| = %d",
				name, s.probes, s.pruned, total, want)
		}
		if s.probes < int64(g.NumTasks()) {
			t.Fatalf("%s: probes %d < one per task (%d)", name, s.probes, g.NumTasks())
		}
	}
}

func TestProbeErrorNamesProcessor(t *testing.T) {
	g, net := eftInstance(1)
	s := mkState(t, g, net, Options{})
	p := net.Processor(2)
	err := s.probeError(0, p, &network.ErrNoRoute{From: 0, To: 1})
	if err == nil || !strings.Contains(err.Error(), net.Node(p).Name) {
		t.Fatalf("probe error %q does not name processor %s", err, net.Node(p).Name)
	}
}
