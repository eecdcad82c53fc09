package trace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/workload"
)

// checkMatchesReference requires AppendScheduleJSON, appended after a
// prefix, and WriteScheduleJSON to produce exactly the reference
// encoder's bytes, or its error with nothing written.
func checkMatchesReference(t *testing.T, label string, s *sched.Schedule) {
	t.Helper()
	var want bytes.Buffer
	wantErr := referenceScheduleJSON(&want, s)
	prefix := []byte("prefix")
	got, err := AppendScheduleJSON(prefix, s)
	var w bytes.Buffer
	werr := WriteScheduleJSON(&w, s)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() || werr == nil || werr.Error() != wantErr.Error() {
			t.Fatalf("%s: errors %v / %v, reference %v", label, err, werr, wantErr)
		}
		if string(got) != "prefix" || w.Len() != 0 {
			t.Fatalf("%s: a failed encode left output: %q / %q", label, got, w.Bytes())
		}
		return
	}
	if err != nil || werr != nil {
		t.Fatalf("%s: errors %v / %v, reference encoded", label, err, werr)
	}
	if !bytes.Equal(got[len(prefix):], want.Bytes()) || string(got[:len(prefix)]) != "prefix" {
		t.Fatalf("%s: AppendScheduleJSON differs from the reference at byte %d",
			label, firstDiff(got[len(prefix):], want.Bytes()))
	}
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Fatalf("%s: WriteScheduleJSON differs from the reference at byte %d",
			label, firstDiff(w.Bytes(), want.Bytes()))
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// serveCluster is the serving benchmark's 32-processor cluster with
// U(1, 10) processor and link speeds.
func serveCluster() *network.Topology {
	r := rand.New(rand.NewSource(2006))
	return network.RandomCluster(r, network.RandomClusterParams{
		Processors: 32,
		ProcSpeed:  network.UniformRange(r, 1, 10),
		LinkSpeed:  network.UniformRange(r, 1, 10),
	})
}

// serveGraph is a request graph of the serving benchmark's shape.
func serveGraph(seed int64, tasks int) *dag.Graph {
	return dag.RandomLayered(rand.New(rand.NewSource(seed)), dag.RandomLayeredParams{
		Tasks:    tasks,
		TaskCost: dag.CostDist{Lo: 1, Hi: 50},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
	})
}

// TestAppendScheduleJSONMatchesReference pins byte identity with the
// reflection-based reference over the paper's schedulers on a §6 grid
// (both machine kinds, two sizes, three CCRs), on the serving cluster,
// and on the shapes with nothing to route: an all-local schedule (no
// "edges" key), an ideal-model schedule and an empty graph.
func TestAppendScheduleJSONMatchesReference(t *testing.T) {
	algos := []sched.Algorithm{sched.NewBA(), sched.NewBASinnen(), sched.NewOIHSA(), sched.NewBBSA()}
	seed := int64(1)
	for _, het := range []bool{false, true} {
		for _, procs := range []int{8, 32} {
			for _, ccr := range []float64{0.5, 2, 8} {
				inst := workload.Generate(workload.Params{
					Processors: procs, CCR: ccr, Heterogeneous: het,
					MinTasks: 40, MaxTasks: 80, Seed: seed,
				})
				seed++
				for _, a := range algos {
					s := mustSchedule(t, a, inst.Graph, inst.Net)
					checkMatchesReference(t, a.Name()+" §6", s)
				}
			}
		}
	}
	net := serveCluster()
	for i, tasks := range []int{101, 151, 201} {
		for _, a := range algos {
			s := mustSchedule(t, a, serveGraph(int64(i), tasks), net)
			checkMatchesReference(t, a.Name()+" serve", s)
		}
	}

	one := network.Star(1, network.Uniform(1), network.Uniform(1))
	local := mustSchedule(t, sched.NewBBSA(), dag.ForkJoin(3, 10, 20), one)
	if local.CommStats().RoutedEdges != 0 {
		t.Fatal("a one-processor schedule routed an edge")
	}
	checkMatchesReference(t, "all-local", local)
	if out, err := AppendScheduleJSON(nil, local); err != nil || bytes.Contains(out, []byte(`"edges"`)) {
		t.Fatalf("an all-local schedule prints an edges key (err %v)", err)
	}
	checkMatchesReference(t, "ideal", mustSchedule(t, sched.NewClassic(), dag.ForkJoin(3, 10, 20), net))
	checkMatchesReference(t, "empty", &sched.Schedule{Algorithm: "BA", Graph: new(dag.Graph), Net: one})
}

// TestAppendScheduleJSONNoAllocs pins the point of the encoder: into a
// buffer with room for the document it allocates nothing.
func TestAppendScheduleJSONNoAllocs(t *testing.T) {
	s := mustSchedule(t, sched.NewBBSA(), serveGraph(1, 151), serveCluster())
	buf, err := AppendScheduleJSON(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if buf, err = AppendScheduleJSON(buf[:0], s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendScheduleJSON into a sized buffer: %v allocs, want 0", n)
	}
}

// floatsSchedule is a schedule whose makespan and task times are fs in
// order, so the encoder prints fs as one sequence (the commStats floats
// follow; there are no routed edges).
func floatsSchedule(t *testing.T, fs []float64) *sched.Schedule {
	var b dag.Builder
	net := network.Star(1, network.Uniform(1), network.Uniform(1))
	s := &sched.Schedule{Algorithm: "memo", Net: net, Makespan: fs[0]}
	for i := 1; i < len(fs); i += 2 {
		tp := sched.TaskPlacement{Task: b.AddTask("t", 1), Proc: net.Processor(0), Start: fs[i]}
		if i+1 < len(fs) {
			tp.Finish = fs[i+1]
		}
		s.Tasks = append(s.Tasks, tp)
	}
	s.Graph = mustBuild(t, &b)
	return s
}

// slotMate returns a float other than f, in f's memo slot: the first
// collision among the multiples of a small odd step.
func slotMate(t *testing.T, f float64) float64 {
	t.Helper()
	want := floatSlot(math.Float64bits(f))
	for i := 1; i < 1<<20; i++ {
		g := float64(i) * 0.37
		if math.Float64bits(g) != math.Float64bits(f) && floatSlot(math.Float64bits(g)) == want {
			return g
		}
	}
	t.Fatalf("no memo slot mate for %v", f)
	return 0
}

// TestAppendScheduleJSONMemo pins the float memo's exactness against
// the reference encoder. Each value is printed, evicted by a different
// float of the same slot, and printed again, several times over, so a
// hit that trusted the slot without comparing bits prints the wrong
// text. The values include +0 as the document's first float (bits 0,
// an empty slot's bits), -0, the smallest subnormal, both sides of the
// 1e-6 and 1e21 format switches, and pairs of ordinary times.
func TestAppendScheduleJSONMemo(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324,
		1e-6, math.Nextafter(1e-6, 0), 9.99e-7, -1e-7,
		1e21, math.Nextafter(1e21, 0), 1e20, -1e21, 1.5e300,
		0.1, 0.2, 0.30000000000000004, 123456789.125, 2.5,
	}
	var fs []float64
	for _, f := range special {
		mate := slotMate(t, f)
		fs = append(fs, f, f, mate, f, mate, mate, f)
	}
	for i := range 200 {
		// Distinct floats alternated in one slot, found by search.
		a := float64(i) + 0.125
		b := slotMate(t, a)
		fs = append(fs, a, b, a, b, b, a)
	}
	// The same values again, now each a hit on whatever the slot holds.
	fs = append(fs, special...)
	fs = append(fs, special...)
	checkMatchesReference(t, "memo", floatsSchedule(t, fs))
}

// fuzzBase is a three-task fork scheduled by BBSA on two processors, so
// it has a routed edge whose leg carries bandwidth chunks.
func fuzzBase(t testing.TB) *sched.Schedule {
	var gb dag.Builder
	a, b, c := gb.AddTask("a", 10), gb.AddTask("b", 10), gb.AddTask("c", 10)
	gb.AddEdge(a, b, 5)
	gb.AddEdge(a, c, 5)
	s, err := sched.NewBBSA().Schedule(mustBuild(t, &gb), network.Star(2, network.Uniform(1), network.Uniform(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, es := range s.Edges {
		if es != nil && len(es.Placements) > 0 && len(es.Placements[0].Chunks) > 0 {
			return s
		}
	}
	t.Fatal("fuzz base schedule has no bandwidth chunk")
	return nil
}

// FuzzScheduleJSON drives AppendScheduleJSON and the reference encoder
// with hostile names (HTML-significant characters, quotes, backslashes,
// control bytes, invalid UTF-8, U+2028/U+2029) and edge-case floats
// (-0, the smallest subnormal, both sides of the 1e-6 and 1e21 format
// switches, NaN, ±Inf) in a task, a leg and a chunk. Each float is
// written at two or three places of the document, so the encoder's
// float memo prints its repeats from a hit. The outputs must be
// identical bytes, or the same error with nothing written.
func FuzzScheduleJSON(f *testing.F) {
	base := fuzzBase(f)
	seeds := []struct {
		algo, name string
		x, y, z    float64
	}{
		{"BBSA", "t0", 0, 1, 2},
		{"a<b", "c>d", math.Copysign(0, -1), 5e-324, 9.99e-7},
		{"a&b", `q"uo\te`, -1e21, 1e-300, 0.1},
		{"\x00\x1f\x7f", "\xff\xfe", 1e-6, 1e20, 1e21},
		{"\u2028", "\u2029\u00e9<script>", 1.5e300, -1e-7, 123456789.125},
		{"BBSA", "nan", math.NaN(), 1, 2},
		{"BBSA", "inf", 1, math.Inf(1), 2},
		{"BBSA", "-inf", 1, 2, math.Inf(-1)},
		{"BBSA", "two", math.Inf(1), math.NaN(), 0},
	}
	for _, sd := range seeds {
		f.Add(sd.algo, sd.name, sd.x, sd.y, sd.z)
	}
	f.Fuzz(func(t *testing.T, algo, name string, x, y, z float64) {
		var b dag.Builder
		for i, bt := range base.Graph.Tasks() {
			n := bt.Name
			if i == 1 {
				n = name
			}
			b.AddTask(n, bt.Cost)
		}
		for _, e := range base.Graph.Edges() {
			b.AddEdge(e.From, e.To, e.Cost)
		}
		s := *base
		s.Algorithm, s.Graph = algo, mustBuild(t, &b)
		s.Tasks = append([]sched.TaskPlacement(nil), base.Tasks...)
		s.Tasks[1].Start, s.Tasks[1].Finish = x, y
		s.Edges = append([]*sched.EdgeSchedule(nil), base.Edges...)
		for i, es := range s.Edges {
			if es == nil || len(es.Placements) == 0 || len(es.Placements[0].Chunks) == 0 {
				continue
			}
			c := *es
			c.Placements = append([]sched.EdgePlacement(nil), es.Placements...)
			c.Arrival = z
			c.Placements[0].Finish = y
			c.Placements[0].Chunks = append(c.Placements[0].Chunks[:0:0], es.Placements[0].Chunks...)
			c.Placements[0].Chunks[0].End = x
			c.Placements[0].Chunks[0].Rate = z
			c.Placements[0].Chunks[0].Volume = z
			s.Edges[i] = &c
			break
		}
		checkMatchesReference(t, "fuzz", &s)
	})
}
