package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGenerateDefaults(t *testing.T) {
	inst := Generate(Params{Seed: 1})
	n := inst.Graph.NumTasks()
	if n < 40 || n > 1000 {
		t.Fatalf("task count %d outside U(40,1000)", n)
	}
	if inst.Net.NumProcessors() != 8 {
		t.Fatalf("default processors %d, want 8", inst.Net.NumProcessors())
	}
	if got := inst.Graph.CCR(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("default CCR %v, want 1", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Processors: 12, CCR: 3, Heterogeneous: true, Seed: 42}
	a := Generate(p)
	b := Generate(p)
	if a.Graph.NumTasks() != b.Graph.NumTasks() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for i := range a.Graph.Tasks() {
		if a.Graph.Tasks()[i] != b.Graph.Tasks()[i] {
			t.Fatal("same seed produced different task costs")
		}
	}
	if a.Net.NumNodes() != b.Net.NumNodes() || a.Net.NumLinks() != b.Net.NumLinks() {
		t.Fatal("same seed produced different networks")
	}
	c := Generate(Params{Processors: 12, CCR: 3, Heterogeneous: true, Seed: 43})
	if c.Graph.NumTasks() == a.Graph.NumTasks() && c.Graph.NumEdges() == a.Graph.NumEdges() &&
		c.Net.NumLinks() == a.Net.NumLinks() {
		t.Log("different seeds produced structurally identical instances (unlikely but possible)")
	}
}

func TestGenerateRespectsCCRAndTasks(t *testing.T) {
	f := func(seed int64, procs, ccrTenths uint8) bool {
		p := Params{
			Processors: int(procs%32) + 1,
			CCR:        (float64(ccrTenths%100) + 1) / 10,
			MinTasks:   50,
			MaxTasks:   60,
			Seed:       seed,
		}
		inst := Generate(p)
		n := inst.Graph.NumTasks()
		if n < 50 || n > 60 {
			return false
		}
		if inst.Net.NumProcessors() != p.Processors {
			return false
		}
		return math.Abs(inst.Graph.CCR()-p.CCR) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateHeterogeneousSpeeds(t *testing.T) {
	inst := Generate(Params{Processors: 30, Heterogeneous: true, Seed: 5})
	varied := false
	first := inst.Net.Node(inst.Net.Processor(0)).Speed
	for pi := range inst.Net.NumProcessors() {
		p := inst.Net.Processor(pi)
		sp := inst.Net.Node(p).Speed
		if sp < 1 || sp > 10 {
			t.Fatalf("processor speed %v outside U(1,10)", sp)
		}
		if sp != first {
			varied = true
		}
	}
	if !varied {
		t.Error("heterogeneous system has uniform processor speeds")
	}
	homo := Generate(Params{Processors: 30, Seed: 5})
	for pi := range homo.Net.NumProcessors() {
		p := homo.Net.Processor(pi)
		if homo.Net.Node(p).Speed != 1 {
			t.Fatalf("homogeneous processor speed %v, want 1", homo.Net.Node(p).Speed)
		}
	}
}

func TestPaperSweeps(t *testing.T) {
	ccrs := PaperCCRs()
	if len(ccrs) != 19 {
		t.Fatalf("PaperCCRs has %d entries, want 19", len(ccrs))
	}
	if math.Abs(ccrs[0]-0.1) > 1e-12 || ccrs[len(ccrs)-1] != 10 {
		t.Fatalf("CCR endpoints %v ... %v", ccrs[0], ccrs[len(ccrs)-1])
	}
	for i := 1; i < len(ccrs); i++ {
		if ccrs[i] <= ccrs[i-1] {
			t.Fatalf("CCRs not increasing at %d", i)
		}
	}
	procs := PaperProcessorCounts()
	want := []int{2, 4, 8, 16, 32, 64, 128}
	if len(procs) != len(want) {
		t.Fatalf("processor counts %v", procs)
	}
	for i := range want {
		if procs[i] != want[i] {
			t.Fatalf("processor counts %v, want %v", procs, want)
		}
	}
}

// TestGenerateAtMaxCCR pins MaxCCR's claim: every instance rescales to
// it, from the smallest graph with an edge to the paper's largest.
func TestGenerateAtMaxCCR(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		inst := Generate(Params{CCR: MaxCCR, MinTasks: 2, MaxTasks: 1000, Seed: seed})
		if got := inst.Graph.CCR(); math.Abs(got-MaxCCR) > 1e-9*MaxCCR {
			t.Fatalf("seed %d: CCR %v, want %v", seed, got, MaxCCR)
		}
	}
}
