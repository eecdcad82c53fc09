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
// cover.
func eftOptionSets() map[string]Options {
	return map[string]Options{
		"slots-basic":   {ProcSelect: ProcSelectEFT},
		"slots-optimal": {ProcSelect: ProcSelectEFT, Insertion: InsertionOptimal, EdgeOrder: EdgeOrderDescCost},
		"bandwidth":     {ProcSelect: ProcSelectEFT, Engine: EngineBandwidth},
		"packets":       {ProcSelect: ProcSelectEFT, Engine: EnginePackets, PacketSize: 40},
		"insertion":     {ProcSelect: ProcSelectEFT, TaskPolicy: TaskInsertion},
		"duplication":   {ProcSelect: ProcSelectEFT, Duplication: true},
	}
}

// captureState snapshots everything placeTask can mutate.
type stateSnap struct {
	tasks      []TaskPlacement
	dups       []TaskPlacement
	procFinish []float64
	slots      [][]float64
	bwSegs     []int
}

func captureSnap(s *state) stateSnap {
	sn := stateSnap{
		tasks:      append([]TaskPlacement(nil), s.tasks...),
		dups:       append([]TaskPlacement(nil), s.dups...),
		procFinish: append([]float64(nil), s.procFinish...),
	}
	for _, tl := range s.tl {
		var times []float64
		for _, slot := range tl.Slots() {
			times = append(times, slot.Start, slot.End)
		}
		sn.slots = append(sn.slots, times)
	}
	for _, bw := range s.bw {
		sn.bwSegs = append(sn.bwSegs, bw.NumSegments())
	}
	return sn
}

func snapsEqual(a, b stateSnap) bool {
	if len(a.tasks) != len(b.tasks) || len(a.dups) != len(b.dups) {
		return false
	}
	for i := range a.tasks {
		if a.tasks[i] != b.tasks[i] {
			return false
		}
	}
	for i := range a.dups {
		if a.dups[i] != b.dups[i] {
			return false
		}
	}
	for i := range a.procFinish {
		if a.procFinish[i] != b.procFinish[i] {
			return false
		}
	}
	for i := range a.slots {
		if len(a.slots[i]) != len(b.slots[i]) {
			return false
		}
		for j := range a.slots[i] {
			if a.slots[i][j] != b.slots[i][j] {
				return false
			}
		}
	}
	for i := range a.bwSegs {
		if a.bwSegs[i] != b.bwSegs[i] {
			return false
		}
	}
	return true
}

// TestClonePlacementEqualsTxnProbe is the probe property test: at
// every scheduling step, placing the task for real on a clone of the
// state — a second state rebuilt by replaying the committed placements
// — must yield exactly the finish time the original computes with a
// transaction probe, and the probes must leave the original untouched.
func TestClonePlacementEqualsTxnProbe(t *testing.T) {
	type commit struct {
		tid  dag.TaskID
		proc network.NodeID
	}
	for name, opts := range eftOptionSets() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				g, net := eftInstance(seed)
				s := mkState(t, g, net, opts)
				order, err := g.PriorityOrder()
				if err != nil {
					t.Fatal(err)
				}
				var committed []commit
				for _, tid := range order {
					before := captureSnap(s)
					for _, p := range net.Processors() {
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
					if after := captureSnap(s); !snapsEqual(before, after) {
						t.Fatalf("seed %d task %d: probing mutated the original state", seed, tid)
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
		})
	}
}

// referenceEFT is the original unpruned sequential policy: probe every
// processor, keep the earliest finish beyond the fptime tolerance.
func referenceEFT(t *testing.T, s *state, tid dag.TaskID) network.NodeID {
	t.Helper()
	best := network.NodeID(-1)
	bestFinish := math.Inf(1)
	for _, p := range s.net.Processors() {
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
	one := network.NewTopology()
	one.AddProcessor("p0", 1)
	for name, net := range map[string]*network.Topology{
		"1-proc": one,
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
		want := int64(g.NumTasks() * len(net.Processors()))
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
	p := net.Processors()[2]
	err := s.probeError(0, p, &network.ErrNoRoute{From: 0, To: 1})
	if err == nil || !strings.Contains(err.Error(), net.Node(p).Name) {
		t.Fatalf("probe error %q does not name processor %s", err, net.Node(p).Name)
	}
}
