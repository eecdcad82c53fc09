// Benchmarks regenerating the paper's evaluation. One benchmark per
// figure (reduced-scale sweeps whose improvement percentages are
// reported as custom metrics) plus one per ablation and micro
// benchmarks of the substrates. Full paper-scale tables are produced
// by cmd/edgesim (-full); see EXPERIMENTS.md.
package edgesched

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/experiment"
	"repro/internal/graphio"
	"repro/internal/linksched"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchConfig is the reduced sweep used by the figure benchmarks:
// small enough to iterate, large enough that the paper's trends are
// visible in the reported metrics.
func benchConfig() experiment.Config {
	return experiment.Config{
		Reps:     1,
		Seed:     2006,
		MinTasks: 150,
		MaxTasks: 250,
		Procs:    []int{8, 32},
		CCRs:     []float64{0.5, 2, 8},
	}
}

func benchFigure(b *testing.B, n int) {
	b.Helper()
	var last *experiment.Sweep
	for i := 0; i < b.N; i++ {
		sw, err := experiment.Figure(n, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = sw
	}
	// Report the mean improvement over all points as custom metrics so
	// the bench run doubles as a figure regeneration check.
	for _, name := range last.Algorithms[1:] {
		sum := 0.0
		for _, pt := range last.Points {
			sum += pt.Improvement[name].Mean
		}
		b.ReportMetric(sum/float64(len(last.Points)), name+"_improv_%")
	}
}

// BenchmarkFigure1 regenerates Figure 1 (homogeneous, improvement vs
// CCR) at reduced scale.
func BenchmarkFigure1(b *testing.B) { benchFigure(b, 1) }

// BenchmarkFigure2 regenerates Figure 2 (homogeneous, improvement vs
// machine size) at reduced scale.
func BenchmarkFigure2(b *testing.B) { benchFigure(b, 2) }

// BenchmarkFigure3 regenerates Figure 3 (heterogeneous, improvement vs
// CCR) at reduced scale.
func BenchmarkFigure3(b *testing.B) { benchFigure(b, 3) }

// BenchmarkFigure4 regenerates Figure 4 (heterogeneous, improvement vs
// machine size) at reduced scale.
func BenchmarkFigure4(b *testing.B) { benchFigure(b, 4) }

func benchAblation(b *testing.B, key string) {
	b.Helper()
	cfg := benchConfig()
	cfg.Procs = []int{16}
	cfg.CCRs = []float64{2}
	var last *experiment.AblationResult
	for i := 0; i < b.N; i++ {
		res, err := experiment.Ablation(key, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, name := range last.Algorithms[1:] {
		b.ReportMetric(last.Improvement[name].Mean, "improv_%_"+name)
	}
}

// BenchmarkAblationRouting compares BFS vs modified Dijkstra (A1).
func BenchmarkAblationRouting(b *testing.B) { benchAblation(b, "routing") }

// BenchmarkAblationInsertion compares basic vs optimal insertion (A2).
func BenchmarkAblationInsertion(b *testing.B) { benchAblation(b, "insertion") }

// BenchmarkAblationEdgeOrder compares edge scheduling orders (A3).
func BenchmarkAblationEdgeOrder(b *testing.B) { benchAblation(b, "edgeorder") }

// BenchmarkAblationClassic compares replayed classic schedules (A4).
func BenchmarkAblationClassic(b *testing.B) { benchAblation(b, "classic") }

// BenchmarkAblationProcChoice compares processor selections (A5).
func BenchmarkAblationProcChoice(b *testing.B) { benchAblation(b, "procchoice") }

// BenchmarkAblationCommStart compares at-ready vs eager starts (A6).
func BenchmarkAblationCommStart(b *testing.B) { benchAblation(b, "commstart") }

// --- single-instance scheduling benchmarks -------------------------

func benchInstance() workload.Instance {
	return workload.Generate(workload.Params{
		Processors: 32, CCR: 2, MinTasks: 300, MaxTasks: 300, Seed: 42,
	})
}

func benchAlgorithm(b *testing.B, a sched.Algorithm) {
	b.Helper()
	inst := benchInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := a.Schedule(inst.Graph, inst.Net)
		if err != nil {
			b.Fatal(err)
		}
		if s.Makespan <= 0 {
			b.Fatal("empty makespan")
		}
	}
}

// BenchmarkScheduleBA times BA on one 300-task, 32-processor instance.
func BenchmarkScheduleBA(b *testing.B) { benchAlgorithm(b, sched.NewBA()) }

// BenchmarkScheduleBASinnen times the strong EFT baseline, whose
// processor probes dominate.
func BenchmarkScheduleBASinnen(b *testing.B) { benchAlgorithm(b, sched.NewBASinnen()) }

// BenchmarkScheduleBASinnenLarge times the strong EFT baseline on a
// 1000-task instance, where the per-link timelines grow long enough
// that the earliest-gap search dominates.
func BenchmarkScheduleBASinnenLarge(b *testing.B) {
	inst := workload.Generate(workload.Params{
		Processors: 32, CCR: 2, MinTasks: 1000, MaxTasks: 1000, Seed: 42,
	})
	a := sched.NewBASinnen()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := a.Schedule(inst.Graph, inst.Net)
		if err != nil {
			b.Fatal(err)
		}
		if s.Makespan <= 0 {
			b.Fatal("empty makespan")
		}
	}
}

// BenchmarkScheduleBASinnenManyProcs times the EFT baseline on a
// 10^4-processor star with U(1,500) heterogeneous speeds, fast links
// and a small DAG: the per-task lower-bound sweep over all 10^4
// processors, the 2*10^4-link timeline columns, and the probes of the
// surviving top-speed candidates dominate instead of long timelines.
func BenchmarkScheduleBASinnenManyProcs(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	net := network.Star(10000, network.UniformRange(r, 1, 500), network.Uniform(10000))
	g := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    48,
		TaskCost: dag.CostDist{Lo: 500, Hi: 1000},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 10},
	})
	a := sched.NewBASinnen()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := a.Schedule(g, net)
		if err != nil {
			b.Fatal(err)
		}
		if s.Makespan <= 0 {
			b.Fatal("empty makespan")
		}
	}
}

// BenchmarkScheduleOIHSA times OIHSA on the same instance.
func BenchmarkScheduleOIHSA(b *testing.B) { benchAlgorithm(b, sched.NewOIHSA()) }

// BenchmarkScheduleBBSA times BBSA on the same instance.
func BenchmarkScheduleBBSA(b *testing.B) { benchAlgorithm(b, sched.NewBBSA()) }

// BenchmarkScheduleLongLinks times the paper's three algorithms on one
// 3000-task instance over 4 processors at CCR 10: few links carrying
// long slot queues and bandwidth ledgers (1.5-2k entries per link), so
// OIHSA's optimal insertion and BBSA's saturated-run walk dominate
// rather than routing or processor choice. Each op is one one-shot
// Schedule call, which after the first op draws the warm state of the
// previous one from the one-shot pool: the op times the scheduling
// itself, and its allocations are the Schedule the call returns plus
// whatever the pooled state still had to grow, not a fresh state.
func BenchmarkScheduleLongLinks(b *testing.B) {
	inst := workload.Generate(workload.Params{
		Processors: 4, CCR: 10, MinTasks: 3000, MaxTasks: 3000, Seed: 42,
	})
	for _, a := range []sched.Algorithm{sched.NewBA(), sched.NewOIHSA(), sched.NewBBSA()} {
		b.Run("algo="+a.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := a.Schedule(inst.Graph, inst.Net)
				if err != nil {
					b.Fatal(err)
				}
				if s.Makespan <= 0 {
					b.Fatal("empty makespan")
				}
			}
		})
	}
}

// BenchmarkScheduleClassic times the contention-free baseline.
func BenchmarkScheduleClassic(b *testing.B) { benchAlgorithm(b, sched.NewClassic()) }

// BenchmarkSchedulePackets times the packetized-message engine on the
// OIHSA stack.
func BenchmarkSchedulePackets(b *testing.B) {
	opts := sched.NewOIHSA().Opts
	opts.Engine = sched.EnginePackets
	opts.Insertion = sched.InsertionBasic
	opts.PacketSize = 100
	benchAlgorithm(b, sched.NewCustom("OIHSA/packets", opts))
}

// BenchmarkAblationPacketSize compares packetization policies (A10).
func BenchmarkAblationPacketSize(b *testing.B) { benchAblation(b, "packetsize") }

// BenchmarkAblationSwitching compares cut-through vs store-and-forward (A8).
func BenchmarkAblationSwitching(b *testing.B) { benchAblation(b, "switching") }

// BenchmarkAblationHopDelay sweeps the per-hop delay (A7).
func BenchmarkAblationHopDelay(b *testing.B) { benchAblation(b, "hopdelay") }

// BenchmarkAblationTaskPolicy compares append vs insertion tasks (A9).
func BenchmarkAblationTaskPolicy(b *testing.B) { benchAblation(b, "taskpolicy") }

// BenchmarkAblationPriority compares task priority schemes (A11).
func BenchmarkAblationPriority(b *testing.B) { benchAblation(b, "priority") }

// BenchmarkAblationDuplication measures source-task duplication (A12).
func BenchmarkAblationDuplication(b *testing.B) { benchAblation(b, "duplication") }

// --- serving engine benchmarks --------------------------------------

// engineFleet is the request wave size of the serving benchmarks: one
// benchmark op schedules all 64 DAGs, so ns/op is directly comparable
// between the engine and the sequential one-shot baseline.
const engineFleet = 64

// engineBenchWorld builds the shared serving workload: one 32-processor
// topology and 64 distinct medium DAGs.
func engineBenchWorld() (*network.Topology, []*dag.Graph) {
	net := benchInstance().Net
	gs := make([]*dag.Graph, engineFleet)
	for i := range gs {
		r := rand.New(rand.NewSource(int64(100 + i)))
		gs[i] = dag.RandomLayered(r, dag.RandomLayeredParams{
			Tasks:    100,
			TaskCost: dag.CostDist{Lo: 1, Hi: 50},
			EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
		})
	}
	return net, gs
}

// BenchmarkEngineThroughput serves the 64-DAG wave concurrently from a
// warmed engine: GOMAXPROCS worker slots, each owning one reusable
// scheduler state and the BFS trees its router has grown. Against
// BenchmarkEngineColdSequential, whose one-shot calls reuse pooled
// states too, this measures what the engine adds: per-topology
// validation done once, and at GOMAXPROCS > 1 the wave overlapping on
// the cores. Schedules are
// bit-identical to one-shot runs throughout (see
// TestEngineMatchesColdRun).
func BenchmarkEngineThroughput(b *testing.B) {
	net, gs := engineBenchWorld()
	eng, err := sched.NewEngine(net, sched.EngineOptions{
		Name: "BA", Opts: sched.NewBA().Opts,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Drain()
	// One untimed wave binds every slot's state, so the timed ops
	// measure the steady state the engine exists for.
	runEngineWave(b, eng, gs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runEngineWave(b, eng, gs)
	}
}

func runEngineWave(b *testing.B, eng *sched.Engine, gs []*dag.Graph) {
	b.Helper()
	var wg sync.WaitGroup
	for _, g := range gs {
		wg.Add(1)
		go func(g *dag.Graph) {
			defer wg.Done()
			s, err := eng.Schedule(g)
			if err != nil {
				b.Error(err)
				return
			}
			if s.Makespan <= 0 {
				b.Error("empty makespan")
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkEngineColdSequential is the baseline the engine is measured
// against: the same 64-DAG wave scheduled by one-shot calls, one
// request at a time. Despite the name no call starts cold: each draws
// a warm state from the one-shot pool, and validates the topology and
// options again; against
// BenchmarkEngineThroughput the difference is the engine's admission
// and, at GOMAXPROCS > 1, its parallelism.
func BenchmarkEngineColdSequential(b *testing.B) {
	net, gs := engineBenchWorld()
	a := sched.NewBA()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gs {
			s, err := a.Schedule(g, net)
			if err != nil {
				b.Fatal(err)
			}
			if s.Makespan <= 0 {
				b.Fatal("empty makespan")
			}
		}
	}
}

// BenchmarkEncodeScheduleJSON times one ?full=1 reply body as
// edgeschedd builds it: AppendScheduleJSON into a buffer reused across
// replies, grown to the largest reply before the timer starts, as a
// serving buffer is after its first requests. The schedules have
// serve_full's shape: BBSA on a 32-processor cluster with U(1, 10)
// speeds, 64 graphs of 101-201 tasks; each op encodes the next one.
func BenchmarkEncodeScheduleJSON(b *testing.B) {
	r := rand.New(rand.NewSource(2006))
	net := network.RandomCluster(r, network.RandomClusterParams{
		Processors: 32,
		ProcSpeed:  network.UniformRange(r, 1, 10),
		LinkSpeed:  network.UniformRange(r, 1, 10),
	})
	ss := make([]*sched.Schedule, engineFleet)
	for i := range ss {
		g := dag.RandomLayered(r, dag.RandomLayeredParams{
			Tasks:    101 + i*101/engineFleet,
			TaskCost: dag.CostDist{Lo: 1, Hi: 50},
			EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
		})
		s, err := sched.NewBBSA().Schedule(g, net)
		if err != nil {
			b.Fatal(err)
		}
		ss[i] = s
	}
	var buf []byte
	for _, s := range ss {
		var err error
		if buf, err = trace.AppendScheduleJSON(buf[:0], s); err != nil {
			b.Fatal(err)
		}
	}
	var total int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = trace.AppendScheduleJSON(buf[:0], ss[i%len(ss)]); err != nil {
			b.Fatal(err)
		}
		total += int64(len(buf))
	}
	b.ReportMetric(float64(total)/float64(b.N)/1024, "KB/reply")
}

// BenchmarkReadGraph times graphio.ReadGraph, which decodes every
// edgeschedd request body and every batch instance, on two bodies: a
// serve-sized graph (201 RandomLayered tasks with edgeload's cost
// ranges) and a long_links-sized one (3000 tasks, 4 processors, CCR
// 10).
func BenchmarkReadGraph(b *testing.B) {
	r := rand.New(rand.NewSource(2006))
	serve := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    201,
		TaskCost: dag.CostDist{Lo: 1, Hi: 50},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
	})
	long := workload.Generate(workload.Params{
		Processors: 4, CCR: 10, MinTasks: 3000, MaxTasks: 3000, Seed: 42,
	}).Graph
	for _, c := range []struct {
		name string
		g    *dag.Graph
	}{{"body=serve", serve}, {"body=long_links", long}} {
		var buf bytes.Buffer
		if err := graphio.WriteGraph(&buf, c.g); err != nil {
			b.Fatal(err)
		}
		body := buf.Bytes()
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graphio.ReadGraph(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate micro benchmarks -------------------------------------

// BenchmarkTimelineInsertBasic measures basic insertion on a loaded
// timeline.
// timelineReqs builds n placement requests spread over a time range
// that scales with n, so timelines reach n slots with realistic
// fragmentation at every sweep size.
func timelineReqs(n int) []linksched.Request {
	r := rand.New(rand.NewSource(1))
	span := float64(n) * 2
	reqs := make([]linksched.Request, n)
	for i := range reqs {
		es := r.Float64() * span
		reqs[i] = linksched.Request{ES: es, PF: es, Dur: r.Float64()*10 + 0.1}
	}
	return reqs
}

// timelineSweep is the slot-count sweep shared by the timeline
// benchmarks: two decades around the sizes the schedulers produce.
var timelineSweep = []int{100, 1000, 10000}

func BenchmarkTimelineInsertBasic(b *testing.B) {
	for _, n := range timelineSweep {
		reqs := timelineReqs(n)
		b.Run(fmt.Sprintf("slots=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tl := linksched.NewTimeline()
				for j, req := range reqs {
					tl.InsertBasic(linksched.Owner{Edge: j}, req)
				}
			}
		})
	}
}

// BenchmarkTimelineProbeBasic isolates the earliest-gap search: probes
// against a prebuilt timeline of n slots, no insertion memmove.
func BenchmarkTimelineProbeBasic(b *testing.B) {
	for _, n := range timelineSweep {
		reqs := timelineReqs(n)
		tl := linksched.NewTimeline()
		for j, req := range reqs {
			tl.InsertBasic(linksched.Owner{Edge: j}, req)
		}
		b.Run(fmt.Sprintf("slots=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				req := reqs[i%len(reqs)]
				start, _ := tl.ProbeBasic(req)
				if start < 0 {
					b.Fatal("negative start")
				}
			}
		})
	}
}

// BenchmarkTimelineInsertOptimal measures optimal insertion across the
// slot sweep, every slot given a constant slack of 5 once placed, as
// the scheduler stores it when an edge is sealed. The shift list is
// handed back to each insert, as the scheduler's state-owned buffer is,
// so the bytes per op are the timeline's own growth.
func BenchmarkTimelineInsertOptimal(b *testing.B) {
	for _, n := range timelineSweep {
		reqs := timelineReqs(n)
		b.Run(fmt.Sprintf("slots=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var moved []linksched.Shifted
			for i := 0; i < b.N; i++ {
				tl := linksched.NewTimeline()
				for j, req := range reqs {
					owner := linksched.Owner{Edge: j}
					var start float64
					start, _, moved = tl.InsertOptimal(owner, req, moved)
					tl.SetSlack(owner, start, 5)
				}
			}
		})
	}
}

// BenchmarkBandwidthAllocForward measures BBSA's chunk engine across a
// two-link route, sweeping the number of transfers sharing the links.
func BenchmarkBandwidthAllocForward(b *testing.B) {
	type job struct{ es, vol float64 }
	for _, n := range timelineSweep {
		r := rand.New(rand.NewSource(1))
		span := float64(n) * 2
		jobs := make([]job, n)
		for i := range jobs {
			jobs[i] = job{es: r.Float64() * span, vol: r.Float64()*50 + 1}
		}
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				up := linksched.NewBWTimeline()
				down := linksched.NewBWTimeline()
				for j, jb := range jobs {
					cs := up.Alloc(linksched.Owner{Edge: j, Leg: 0}, jb.es, jb.vol, 2, 0)
					down.Forward(nil, cs, 2, 1, 0)
				}
			}
		})
	}
}

// BenchmarkBandwidthEstimateFinish isolates BBSA's routing probe: the
// modified-Dijkstra relax calls EstimateFinish against loaded ledgers
// without reserving anything. Each ledger is grown past n segments
// with a mix of saturating and partial-rate allocations, so the probe
// crosses both skippable saturated runs and fragmented availability.
// The mag=1e7 cases shift every time by 10^7, the scale long schedules
// reach, where one ulp of a time is no longer small against Eps.
func BenchmarkBandwidthEstimateFinish(b *testing.B) {
	for _, m := range []struct {
		label string
		mag   float64
	}{{"", 0}, {"mag=1e7/", 1e7}} {
		mag := m.mag
		for _, n := range timelineSweep {
			r := rand.New(rand.NewSource(1))
			span := float64(n) * 2
			bw := linksched.NewBWTimeline()
			for j := 0; bw.NumSegments() < n; j++ {
				cap := 0.0 // uncapped: saturates its span
				if j%2 == 0 {
					cap = 0.25 + r.Float64()*0.5
				}
				bw.Alloc(linksched.Owner{Edge: j}, mag+r.Float64()*span, r.Float64()*50+1, 2, cap)
			}
			probes := make([]float64, 512)
			for i := range probes {
				probes[i] = mag + r.Float64()*span
			}
			b.Run(m.label+fmt.Sprintf("segs=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					start, finish := bw.EstimateFinish(probes[i%len(probes)], 25, 2)
					if finish < start {
						b.Fatal("estimate finished before it started")
					}
				}
			})
		}
	}
}

// BenchmarkBFSRoute measures minimal routing on a 64-processor WAN on
// one Router. The first route from each source grows that source's BFS
// tree; every later op unwinds a route from a grown tree, which is
// what nearly every op times.
func BenchmarkBFSRoute(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	top := network.RandomCluster(r, network.RandomClusterParams{Processors: 64})
	router := top.NewRouter(nil)
	n := top.NumProcessors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := top.Processor(i % n)
		dst := top.Processor((i*7 + 3) % n)
		if _, err := router.BFSRoute(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDijkstraRoute measures modified-Dijkstra routing with an
// arithmetic relax on one reused Router per network: the WAN above,
// the serve workloads' 32-processor cluster (seed 2006) and a
// 4-processor single-switch cluster, on which every pair is forced.
// entry=DijkstraRoute searches every pair; entry=Route answers forced
// pairs with the BFS route unwound from the source's tree. relaxes/op counts relax calls,
// which do not depend on the host.
func BenchmarkDijkstraRoute(b *testing.B) {
	serve := rand.New(rand.NewSource(2006))
	for _, n := range []struct {
		name string
		top  *network.Topology
	}{
		{"wan64", network.RandomCluster(rand.New(rand.NewSource(1)), network.RandomClusterParams{Processors: 64})},
		{"serve32", network.RandomCluster(serve, network.RandomClusterParams{
			Processors: 32,
			ProcSpeed:  network.UniformRange(serve, 1, 10),
			LinkSpeed:  network.UniformRange(serve, 1, 10),
		})},
		{"switch4", network.RandomCluster(rand.New(rand.NewSource(1)), network.RandomClusterParams{Processors: 4})},
	} {
		for _, entry := range []string{"DijkstraRoute", "Route"} {
			b.Run("net="+n.name+"/entry="+entry, func(b *testing.B) {
				router := n.top.NewRouter(nil)
				procs := n.top.NumProcessors()
				relaxes := 0
				relax := func(l network.Link, cur network.Label) network.Label {
					relaxes++
					return network.Label{Start: cur.Start, Finish: cur.Finish + 10/l.Speed}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src := n.top.Processor(i % procs)
					dst := n.top.Processor((i*7 + 3) % procs)
					var err error
					if entry == "Route" {
						_, err = router.Route(src, dst, network.Label{}, relax)
					} else {
						_, _, err = router.DijkstraRoute(src, dst, network.Label{}, relax)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(relaxes)/float64(b.N), "relaxes/op")
			})
		}
	}
}

// BenchmarkWorkloadGenerate measures §6 instance generation.
func BenchmarkWorkloadGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst := workload.Generate(workload.Params{
			Processors: 32, CCR: 2, MinTasks: 300, MaxTasks: 300, Seed: int64(i),
		})
		if inst.Graph.NumTasks() != 300 {
			b.Fatal("bad instance")
		}
	}
}

// BenchmarkBottomLevels measures priority computation on a large DAG.
func BenchmarkBottomLevels(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    2000,
		TaskCost: dag.CostDist{Lo: 1, Hi: 1000},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 1000},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BottomLevels()
	}
}
