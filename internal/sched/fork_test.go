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

// forkInstance builds a random DAG/topology pair for fork tests.
func forkInstance(seed int64) (*dag.Graph, *network.Topology) {
	r := rand.New(rand.NewSource(seed))
	g := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    25,
		TaskCost: dag.CostDist{Lo: 1, Hi: 50},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
	})
	net := network.Star(4, network.Uniform(1), network.Uniform(1))
	return g, net
}

// forkOptionSets are the engine/policy combinations Clone must cover.
func forkOptionSets() map[string]Options {
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

// TestClonePlacementEqualsTxnProbe is the Clone property test: at every
// scheduling step, placing the task on a forked copy of the state must
// yield exactly the finish time the original computes with a
// transaction probe — and must leave the original untouched.
func TestClonePlacementEqualsTxnProbe(t *testing.T) {
	for name, opts := range forkOptionSets() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				g, net := forkInstance(seed)
				s := mkState(t, g, net, opts)
				order, err := g.PriorityOrder()
				if err != nil {
					t.Fatal(err)
				}
				for _, tid := range order {
					before := captureSnap(s)
					for _, p := range net.Processors() {
						want, werr := s.probe(tid, p)
						c := s.Clone()
						got, gerr := c.placeTask(tid, p)
						if (werr == nil) != (gerr == nil) {
							t.Fatalf("seed %d task %d proc %v: clone err %v, probe err %v", seed, tid, p, gerr, werr)
						}
						if werr == nil && got != want {
							t.Fatalf("seed %d task %d proc %v: clone finish %v, probe finish %v", seed, tid, p, got, want)
						}
					}
					if after := captureSnap(s); !snapsEqual(before, after) {
						t.Fatalf("seed %d task %d: probing/cloning mutated the original state", seed, tid)
					}
					proc, err := s.selectProcessor(tid)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := s.placeTask(tid, proc); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestCloneIndependence drives a cloned state through a full schedule
// while the original sits untouched, then the reverse — the guard
// against a clone that aliases its original's state. Every
// engine/policy combination is covered so all timeline variants (slot,
// bandwidth, packet, processor-insertion) prove their deep copies.
func TestCloneIndependence(t *testing.T) {
	for name, opts := range forkOptionSets() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			g, net := forkInstance(7)
			s := mkState(t, g, net, opts)
			order, err := g.PriorityOrder()
			if err != nil {
				t.Fatal(err)
			}
			// Place the first half on the original so the clone starts
			// from a non-trivial state.
			half := order[:len(order)/2]
			for _, tid := range half {
				proc, err := s.selectProcessor(tid)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.placeTask(tid, proc); err != nil {
					t.Fatal(err)
				}
			}
			before := captureSnap(s)
			c := s.Clone()

			// Run the clone to completion; the original must not move.
			for _, tid := range order[len(order)/2:] {
				proc, err := c.selectProcessor(tid)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.placeTask(tid, proc); err != nil {
					t.Fatal(err)
				}
			}
			if after := captureSnap(s); !snapsEqual(before, after) {
				t.Fatalf("%s: completing a cloned schedule mutated the original state", name)
			}

			// And the reverse: mutating the original must not reach the
			// (already completed) clone.
			cb := captureSnap(c)
			for _, tid := range order[len(order)/2:] {
				proc, err := s.selectProcessor(tid)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.placeTask(tid, proc); err != nil {
					t.Fatal(err)
				}
			}
			if got := captureSnap(c); !snapsEqual(cb, got) {
				t.Fatalf("%s: completing the original schedule mutated its clone", name)
			}
		})
	}
}

func TestCloneInsideTxnPanics(t *testing.T) {
	g, net := forkInstance(1)
	s := mkState(t, g, net, Options{})
	s.begin()
	defer func() {
		if recover() == nil {
			t.Fatal("Clone inside a transaction did not panic")
		}
	}()
	s.Clone()
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
		g, net := forkInstance(seed)
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
		totalPruned += s.stats.pruned.Load()
		if probes := s.stats.probes.Load(); probes <= 0 {
			t.Fatalf("seed %d: probe counter not incremented", seed)
		}
	}
	if totalPruned == 0 {
		t.Fatal("lower-bound pruning never fired across any seed; the bound is vacuous")
	}
}

// TestParallelEFTMatchesSequentialWhiteBox steps a forked state and a
// sequential state through the same schedule and asserts identical
// selections and finish times at every step.
func TestParallelEFTMatchesSequentialWhiteBox(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g, net := forkInstance(seed)
		seq := mkState(t, g, net, Options{ProcSelect: ProcSelectEFT, ProbeWorkers: 1})
		par := mkState(t, g, net, Options{ProcSelect: ProcSelectEFT, ProbeWorkers: 8})
		par.fork(8)
		order, err := g.PriorityOrder()
		if err != nil {
			t.Fatal(err)
		}
		for _, tid := range order {
			sp, err := seq.selectByEFT(tid)
			if err != nil {
				t.Fatal(err)
			}
			pp, err := par.selectByEFT(tid)
			if err != nil {
				t.Fatal(err)
			}
			if sp != pp {
				t.Fatalf("seed %d task %d: sequential chose %v, parallel chose %v", seed, tid, sp, pp)
			}
			sf, err := seq.placeTask(tid, sp)
			if err != nil {
				t.Fatal(err)
			}
			pf, err := par.placeAndCommit(tid, pp)
			if err != nil {
				t.Fatal(err)
			}
			if sf != pf {
				t.Fatalf("seed %d task %d: finish %v sequential vs %v parallel", seed, tid, sf, pf)
			}
		}
	}
}

// TestProbeStatsAgreeAcrossTopologySizes pins the probe accounting
// invariant: every task's selection evaluates |P| placements, as
// probes + pruned. The 1-processor early return used to skip the
// counter entirely, so reported probe counts disagreed between
// 1-processor and n-processor topologies.
func TestProbeStatsAgreeAcrossTopologySizes(t *testing.T) {
	g, _ := forkInstance(2)
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
		total := s.stats.probes.Load() + s.stats.pruned.Load()
		want := int64(g.NumTasks() * len(net.Processors()))
		if total != want {
			t.Fatalf("%s: probes(%d) + pruned(%d) = %d, want tasks×|P| = %d",
				name, s.stats.probes.Load(), s.stats.pruned.Load(), total, want)
		}
		if p := s.stats.probes.Load(); p < int64(g.NumTasks()) {
			t.Fatalf("%s: probes %d < one per task (%d)", name, p, g.NumTasks())
		}
	}
}

func TestProbeErrorNamesProcessor(t *testing.T) {
	g, net := forkInstance(1)
	s := mkState(t, g, net, Options{})
	p := net.Processors()[2]
	err := s.probeError(0, p, &network.ErrNoRoute{From: 0, To: 1})
	if err == nil || !strings.Contains(err.Error(), net.Node(p).Name) {
		t.Fatalf("probe error %q does not name processor %s", err, net.Node(p).Name)
	}
}

func TestProbeWorkersResolution(t *testing.T) {
	if got := probeWorkers(Options{ProbeWorkers: 1}); got != 1 {
		t.Fatalf("ProbeWorkers 1 resolved to %d", got)
	}
	if got := probeWorkers(Options{ProbeWorkers: -3}); got != 1 {
		t.Fatalf("ProbeWorkers -3 resolved to %d, want 1", got)
	}
	if got := probeWorkers(Options{ProbeWorkers: 6}); got != 6 {
		t.Fatalf("ProbeWorkers 6 resolved to %d", got)
	}
	if got := probeWorkers(Options{}); got < 1 {
		t.Fatalf("default ProbeWorkers resolved to %d", got)
	}
}
