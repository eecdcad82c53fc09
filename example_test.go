package edgesched_test

import (
	"fmt"
	"os"

	edgesched "repro"
)

// ExampleOIHSA schedules a two-task pipeline on a two-processor
// machine and prints the verified makespan.
func ExampleOIHSA() {
	gb := edgesched.NewGraph()
	a := gb.AddTask("produce", 10)
	b := gb.AddTask("consume", 10)
	gb.AddEdge(a, b, 40)
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}

	net := edgesched.Line(2, edgesched.Uniform(1), edgesched.Uniform(1))

	s, err := edgesched.OIHSA().Schedule(g, net)
	if err != nil {
		panic(err)
	}
	if err := edgesched.Verify(s); err != nil {
		panic(err)
	}
	// The 40-unit transfer is slower than just running both tasks
	// locally, so the scheduler keeps them on one processor.
	fmt.Println(s.Makespan)
	// Output: 20
}

// ExampleBBSA shows bandwidth sharing: two equal transfers leave one
// processor at the same time and may split the uplink.
func ExampleBBSA() {
	gb := edgesched.NewGraph()
	src := gb.AddTask("src", 2)
	l := gb.AddTask("left", 1)
	r := gb.AddTask("right", 1)
	gb.AddEdge(src, l, 10)
	gb.AddEdge(src, r, 10)
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}

	net := edgesched.Star(3, edgesched.Uniform(1), edgesched.Uniform(1))
	s, err := edgesched.BBSA().Schedule(g, net)
	if err != nil {
		panic(err)
	}
	fmt.Println(edgesched.Verify(s) == nil)
	// Output: true
}

// ExampleVerify demonstrates that the verifier rejects a corrupted
// schedule.
func ExampleVerify() {
	g := edgesched.Diamond(10, 10)
	net := edgesched.Line(2, edgesched.Uniform(1), edgesched.Uniform(1))
	s, err := edgesched.BA().Schedule(g, net)
	if err != nil {
		panic(err)
	}
	fmt.Println("valid:", edgesched.Verify(s) == nil)

	s.Makespan *= 2 // corrupt it
	fmt.Println("corrupted detected:", edgesched.Verify(s) != nil)
	// Output:
	// valid: true
	// corrupted detected: true
}

// ExampleGenerateInstance builds a reproducible paper-style instance.
func ExampleGenerateInstance() {
	inst := edgesched.GenerateInstance(edgesched.WorkloadParams{
		Processors: 4,
		CCR:        2,
		MinTasks:   50,
		MaxTasks:   50,
		Seed:       1,
	})
	fmt.Println(inst.Graph.NumTasks(), inst.Net.NumProcessors())
	// Output: 50 4
}

// ExampleWriteGantt renders a small schedule as a text Gantt chart.
func ExampleWriteGantt() {
	gb := edgesched.NewGraph()
	gb.AddTask("only", 10)
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}
	net := edgesched.Star(1, edgesched.Uniform(1), edgesched.Uniform(1))
	s, err := edgesched.BA().Schedule(g, net)
	if err != nil {
		panic(err)
	}
	if err := edgesched.WriteGantt(os.Stdout, s, 10, false); err != nil {
		panic(err)
	}
	// Output:
	// BA  makespan=10.00  (each cell = 1.00 time units)
	// P0       |0000000000|
}

// ExampleScheduleAssignment prices a hand-written placement.
func ExampleScheduleAssignment() {
	gb := edgesched.NewGraph()
	a := gb.AddTask("a", 10)
	b := gb.AddTask("b", 10)
	gb.AddEdge(a, b, 10)
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}
	net := edgesched.Line(2, edgesched.Uniform(1), edgesched.Uniform(1))
	s, err := edgesched.ScheduleAssignment(g, net,
		[]edgesched.NodeID{net.Processor(0), net.Processor(1)}, edgesched.Options{}, "manual")
	if err != nil {
		panic(err)
	}
	// a: [0,10]; transfer: [10,20]; b: [20,30].
	fmt.Println(s.Makespan)
	// Output: 30
}
