package analysis

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/verify"
)

func schedule(t *testing.T, algo sched.Algorithm, g *dag.Graph, net *network.Topology) *sched.Schedule {
	t.Helper()
	s, err := algo.Schedule(g, net)
	if err != nil {
		t.Fatal(err)
	}
	if res := verify.Verify(s); !res.OK() {
		t.Fatalf("%s produced an invalid schedule: %v", algo.Name(), res.Err())
	}
	return s
}

func TestSpeedupSingleChain(t *testing.T) {
	// A chain cannot be parallelized: speedup must be ≤ 1 and the
	// critical-path bound equals serial time.
	g := dag.Chain(5, 10, 1)
	net := network.Star(4, network.Uniform(1), network.Uniform(1))
	s := schedule(t, sched.NewOIHSA(), g, net)
	r := Analyze(s)
	if r.SerialTime != 50 {
		t.Fatalf("serial time %v, want 50", r.SerialTime)
	}
	if r.CPBound != 50 {
		t.Fatalf("CP bound %v, want 50", r.CPBound)
	}
	if r.Speedup > 1+1e-9 {
		t.Fatalf("speedup %v > 1 on a chain", r.Speedup)
	}
	if r.Makespan < r.CPBound-1e-9 {
		t.Fatalf("makespan %v beats the critical-path bound %v", r.Makespan, r.CPBound)
	}
}

func TestBoundsHoldOnRandomInstances(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		g := dag.RandomLayered(r, dag.RandomLayeredParams{
			Tasks:    50,
			TaskCost: dag.CostDist{Lo: 1, Hi: 100},
			EdgeCost: dag.CostDist{Lo: 1, Hi: 100},
		})
		net := network.RandomCluster(r, network.RandomClusterParams{
			Processors: 6,
			ProcSpeed:  network.UniformRange(r, 1, 10),
			LinkSpeed:  network.UniformRange(r, 1, 10),
		})
		for _, algo := range []sched.Algorithm{sched.NewBA(), sched.NewOIHSA(), sched.NewBBSA()} {
			s := schedule(t, algo, g, net)
			rep := Analyze(s)
			if s.Makespan < rep.CPBound-1e-6 {
				t.Errorf("%s: makespan %v beats CP bound %v", algo.Name(), s.Makespan, rep.CPBound)
			}
			if s.Makespan < rep.WorkBound-1e-6 {
				t.Errorf("%s: makespan %v beats work bound %v", algo.Name(), s.Makespan, rep.WorkBound)
			}
			if rep.Efficiency < 0 || rep.Efficiency > 1+1e-9 {
				t.Errorf("%s: efficiency %v outside [0,1]", algo.Name(), rep.Efficiency)
			}
			if rep.ProcUtil.Max > 1+1e-9 {
				t.Errorf("%s: processor utilization %v > 1", algo.Name(), rep.ProcUtil.Max)
			}
			if rep.LinkUtil.Max > 1+1e-6 {
				t.Errorf("%s: link utilization %v > 1", algo.Name(), rep.LinkUtil.Max)
			}
			if rep.ContentionDelay.Min < 0 {
				t.Errorf("%s: negative contention delay", algo.Name())
			}
		}
	}
}

func TestCriticalChainCoversMakespan(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    40,
		TaskCost: dag.CostDist{Lo: 1, Hi: 100},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
	})
	net := network.RandomCluster(r, network.RandomClusterParams{
		Processors: 6, ProcSpeed: network.Uniform(1), LinkSpeed: network.Uniform(1)})
	s := schedule(t, sched.NewOIHSA(), g, net)
	rep := Analyze(s)
	if len(rep.CriticalChain) == 0 {
		t.Fatal("no critical chain")
	}
	lastSeg := rep.CriticalChain[len(rep.CriticalChain)-1]
	if math.Abs(lastSeg.End-s.Makespan) > 1e-6 {
		t.Fatalf("chain ends at %v, makespan %v", lastSeg.End, s.Makespan)
	}
	// The chain must start at (or very near) time 0 at a source task.
	first := rep.CriticalChain[0]
	if first.Start > 1e-6 {
		t.Fatalf("chain starts at %v, expected a source task at 0", first.Start)
	}
	// Segments are in non-decreasing time order with no inversions.
	for i := 1; i < len(rep.CriticalChain); i++ {
		if rep.CriticalChain[i].Start < rep.CriticalChain[i-1].Start-1e-6 {
			t.Fatalf("chain segments out of order at %d", i)
		}
	}
	// Breakdown must be positive and dominated by real categories.
	if rep.ChainBreakdown.Total() <= 0 {
		t.Fatal("empty chain breakdown")
	}
	if rep.ChainBreakdown.Compute <= 0 {
		t.Fatal("chain has no compute time")
	}
}

func TestChainProcWaitDetected(t *testing.T) {
	// Two independent heavy tasks forced onto one processor: the
	// second waits for the first — the chain must contain a proc-wait.
	var gb dag.Builder
	gb.AddTask("t1", 50)
	gb.AddTask("t2", 50)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	net := network.Star(1, network.Uniform(1), network.Uniform(1))
	s := schedule(t, sched.NewBA(), g, net)
	rep := Analyze(s)
	found := false
	for _, c := range rep.CriticalChain {
		if c.Kind == ChainProcWait {
			found = true
		}
	}
	if !found {
		t.Fatalf("no proc-wait segment in chain: %+v", rep.CriticalChain)
	}
	if rep.ChainBreakdown.ProcWait <= 0 {
		t.Fatal("proc-wait not accounted")
	}
}

func TestChainCommDetected(t *testing.T) {
	// A two-task chain across two processors with a big transfer: the
	// chain must contain a comm segment when tasks land apart; force
	// that with the EFT scheduler on zero-attraction workloads.
	var gb dag.Builder
	a := gb.AddTask("a", 10)
	b := gb.AddTask("b", 10)
	c := gb.AddTask("c", 10)
	gb.AddEdge(a, c, 10)
	gb.AddEdge(b, c, 10)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := schedule(t, sched.NewBA(), g, net)
	rep := Analyze(s)
	// a and b run in parallel on the two processors; c needs a transfer
	// from one of them.
	if s.Tasks[a].Proc != s.Tasks[b].Proc {
		foundComm := false
		for _, cl := range rep.CriticalChain {
			if cl.Kind == ChainComm {
				foundComm = true
			}
		}
		if !foundComm {
			t.Fatalf("no comm segment in chain: %+v", rep.CriticalChain)
		}
	}
}

func TestContentionDelayZeroOnPrivateLink(t *testing.T) {
	// A single transfer on an otherwise empty network has no
	// avoidable delay.
	g := dag.Chain(2, 10, 50)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := schedule(t, sched.NewBASinnen(), g, net)
	rep := Analyze(s)
	if rep.RoutedEdges > 0 && rep.ContentionDelay.Max > 1e-6 {
		t.Fatalf("unexpected contention delay %v", rep.ContentionDelay.Max)
	}
}

func TestAnalyzeIdealSchedule(t *testing.T) {
	g := dag.Diamond(10, 10)
	net := network.Star(3, network.Uniform(1), network.Uniform(1))
	s := schedule(t, sched.NewClassic(), g, net)
	rep := Analyze(s)
	if rep.Speedup <= 0 {
		t.Fatal("no speedup computed for ideal schedule")
	}
	if len(rep.CriticalChain) != 0 {
		t.Fatal("ideal schedules must not get a chain analysis")
	}
}

func TestWriteReport(t *testing.T) {
	g := dag.ForkJoin(3, 10, 20)
	net := network.Star(3, network.Uniform(1), network.Uniform(1))
	s := schedule(t, sched.NewOIHSA(), g, net)
	var buf bytes.Buffer
	if err := WriteReport(&buf, Analyze(s)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"makespan", "speedup", "processor utilization", "critical chain"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestChainKindString(t *testing.T) {
	if ChainCompute.String() != "compute" || ChainComm.String() != "comm" ||
		ChainProcWait.String() != "proc-wait" || ChainIdle.String() != "idle" {
		t.Fatal("chain kind strings")
	}
}
