package sched_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/verify"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/schedules.golden and print the lines that moved")

const goldenPath = "testdata/schedules.golden"

// goldenAlgorithms are every ByName preset plus the option sets no
// preset covers: the packet engine, store-and-forward switching, a hop
// delay, source duplication, task insertion, eager communication and
// the two other priority orders.
func goldenAlgorithms() []sched.Algorithm {
	var out []sched.Algorithm
	for _, name := range sched.AlgorithmNames() {
		a, err := sched.ByName(name)
		if err != nil {
			panic(err)
		}
		out = append(out, a)
	}
	oi, ba, bb := sched.NewOIHSA().Opts, sched.NewBA().Opts, sched.NewBBSA().Opts
	pkts, sf, hop, dup, ins, eager, comp, crit := oi, bb, oi, ba, oi, oi, oi, ba
	pkts.Engine, pkts.Insertion, pkts.PacketSize, pkts.PacketOverhead = sched.EnginePackets, sched.InsertionBasic, 100, 1
	sf.Switching = sched.StoreAndForward
	hop.HopDelay = 2
	dup.Duplication = true
	ins.TaskPolicy = sched.TaskInsertion
	eager.CommStart = sched.CommAtSourceFinish
	comp.Priority = sched.PriorityCompBottomLevel
	crit.Priority = sched.PriorityCriticality
	return append(out,
		sched.NewCustom("OIHSA/packets", pkts),
		sched.NewCustom("BBSA/store-forward", sf),
		sched.NewCustom("OIHSA/hop-delay", hop),
		sched.NewCustom("BA/duplication", dup),
		sched.NewCustom("OIHSA/task-ins", ins),
		sched.NewCustom("OIHSA/eager", eager),
		sched.NewCustom("OIHSA/bl-comp", comp),
		sched.NewCustom("BA/bl+tl", crit),
	)
}

type goldenInstance struct {
	name string
	g    *dag.Graph
	net  *network.Topology
}

// goldenInstances are §6 instances of three sizes and small versions of
// the four bench workloads: request graphs on the serve cluster (21-41
// and 101-201 tasks), a corner of the paper sweep's grid, and a
// long-links instance at a fifth of its size.
func goldenInstances() []goldenInstance {
	var out []goldenInstance
	for i, tasks := range []int{40, 400, 1000} {
		inst := workload.Generate(workload.Params{
			Processors: 8, CCR: 2, Heterogeneous: i == 1,
			MinTasks: tasks, MaxTasks: tasks, Seed: int64(600 + i),
		})
		out = append(out, goldenInstance{fmt.Sprintf("sec6-%d", tasks), inst.Graph, inst.Net})
	}

	tr := rand.New(rand.NewSource(2006))
	serve := network.RandomCluster(tr, network.RandomClusterParams{
		Processors: 32,
		ProcSpeed:  network.UniformRange(tr, 1, 10),
		LinkSpeed:  network.UniformRange(tr, 1, 10),
	})
	r := rand.New(rand.NewSource(1))
	for _, tasks := range []int{21, 41, 101, 201} {
		g := dag.RandomLayered(r, dag.RandomLayeredParams{
			Tasks:    tasks,
			TaskCost: dag.CostDist{Lo: 1, Hi: 50},
			EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
		})
		out = append(out, goldenInstance{fmt.Sprintf("serve-%d", tasks), g, serve})
	}

	for i, c := range []struct {
		procs int
		ccr   float64
		het   bool
	}{{8, 0.5, false}, {32, 8, true}} {
		inst := workload.Generate(workload.Params{
			Processors: c.procs, CCR: c.ccr, Heterogeneous: c.het,
			MinTasks: 80, MaxTasks: 80, Seed: int64(1000003 + i),
		})
		out = append(out, goldenInstance{fmt.Sprintf("sweep-p%d-ccr%g", c.procs, c.ccr), inst.Graph, inst.Net})
	}

	inst := workload.Generate(workload.Params{Processors: 4, CCR: 10, MinTasks: 600, MaxTasks: 600, Seed: 1000003})
	return append(out, goldenInstance{"long-links-600", inst.Graph, inst.Net})
}

// scheduleDigest hashes the float bits of every task placement, route
// link, leg, chunk and duplicate of s, and its makespan.
func scheduleDigest(s *sched.Schedule) uint64 {
	h := fnv.New64a()
	for _, tp := range s.Tasks {
		hashPlacement(h, tp)
	}
	for _, es := range s.Edges {
		if es == nil {
			hashWords(h, math.MaxUint64)
			continue
		}
		hashWords(h, uint64(es.Edge), uint64(es.SrcProc), uint64(es.DstProc),
			math.Float64bits(es.Arrival), math.Float64bits(es.Base), uint64(len(es.Route)))
		for _, l := range es.Route {
			hashWords(h, uint64(l))
		}
		for _, p := range es.Placements {
			hashWords(h, uint64(p.Link), math.Float64bits(p.Start), math.Float64bits(p.Finish), uint64(len(p.Chunks)))
			for _, c := range p.Chunks {
				hashWords(h, math.Float64bits(c.Start), math.Float64bits(c.End),
					math.Float64bits(c.Rate), math.Float64bits(c.Volume))
			}
		}
	}
	hashWords(h, uint64(len(s.Duplicates)))
	for _, tp := range s.Duplicates {
		hashPlacement(h, tp)
	}
	hashWords(h, math.Float64bits(s.Makespan))
	return h.Sum64()
}

func hashPlacement(h hash.Hash64, tp sched.TaskPlacement) {
	hashWords(h, uint64(tp.Task), uint64(tp.Proc), math.Float64bits(tp.Start), math.Float64bits(tp.Finish))
}

func hashWords(h hash.Hash64, ws ...uint64) {
	var b [8]byte
	for _, w := range ws {
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
}

// TestScheduleGoldens pins every schedule of the golden corpus, bit for
// bit, against testdata/schedules.golden: one FNV-64 digest per
// (algorithm, instance). A change that moves any schedule, even to
// another valid one, fails here. Run with -update to rewrite the file;
// with -v it also prints the lines that moved.
func TestScheduleGoldens(t *testing.T) {
	var lines []string
	for _, in := range goldenInstances() {
		for _, a := range goldenAlgorithms() {
			s, err := a.Schedule(in.g, in.net)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name(), in.name, err)
			}
			if err := verify.Verify(s).Err(); err != nil {
				t.Fatalf("%s on %s: %v", a.Name(), in.name, err)
			}
			lines = append(lines, fmt.Sprintf("%s %s %016x", a.Name(), in.name, scheduleDigest(s)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	old, err := os.ReadFile(goldenPath)
	if err != nil && !*update {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(string(old)))
	for sc.Scan() {
		want[sc.Text()] = true
	}
	var moved []string
	for _, l := range lines {
		if !want[l] {
			moved = append(moved, l)
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, l := range moved {
			t.Logf("moved: %s", l)
		}
		return
	}
	if got != string(old) {
		t.Errorf("%d of %d schedules moved (-update rewrites %s):\n%s", len(moved), len(lines), goldenPath, strings.Join(moved, "\n"))
	}
}
