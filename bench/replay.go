package main

import (
	"math"
	"time"

	"repro/internal/linksched"
	"repro/internal/network"
	"repro/internal/sched"
)

// Kernel replay times the network and linksched layers, which the
// scheduler calls millions of times from inside one Schedule. After a
// traced schedule, the benchmark rebuilds the schedule's link state
// through the public API and then calls the kernels on it:
//
//   - slots engine (BA, OIHSA): one Timeline.InsertBasic per recorded
//     EdgePlacement, at its recorded interval;
//   - bandwidth engine (BBSA): one BWTimeline.Alloc per recorded chunk,
//     at its rate;
//   - Dijkstra routing (OIHSA, BBSA): Router.DijkstraRoute for every
//     routed edge, relaxing with ProbeBasic or EstimateFinish as the
//     scheduler's relaxation does (cut-through, no hop delay, as in the
//     presets);
//   - OIHSA: ProbeBasic and ProbeOptimal on every route link, with the
//     Lemma-2 slack taken from the recorded legs;
//   - BBSA: EstimateFinish on every route link;
//   - BFS routing (BA): Router.BFSRoute for every routed edge, with no
//     route cache.
//
// These are the benchmark's calls, made at the workload's real final
// link state; they are not the scheduler's own calls, whose link state
// grows as the schedule is built. Their times are per call, and the
// counts are exact.

// timing is the total time and number of calls of one kernel.
type timing struct {
	d time.Duration
	n int64
}

// per is the mean time per call in the given unit, 0 with no calls.
func (t timing) per(unit time.Duration) float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.d) / float64(t.n) / float64(unit)
}

// kernels accumulates the replay over every schedule of a traced pass.
type kernels struct {
	insertBasic, probeBasic, probeOptimal, bwEstimate, dijkstra, bfs timing

	relaxCalls           int64
	slotsMax, slotsTotal int
	bwChunks             int
}

func (k *kernels) set(m *metricSet) {
	m.set("network.dijkstra_us", k.dijkstra.per(time.Microsecond))
	m.set("network.relax_calls", float64(k.relaxCalls))
	m.set("network.bfs_us", k.bfs.per(time.Microsecond))
	m.set("linksched.slots_per_link_max", float64(k.slotsMax))
	m.set("linksched.slots_total", float64(k.slotsTotal))
	m.set("linksched.bw_chunks_total", float64(k.bwChunks))
	m.set("linksched.insert_basic_ns", k.insertBasic.per(time.Nanosecond))
	m.set("linksched.probe_basic_ns", k.probeBasic.per(time.Nanosecond))
	m.set("linksched.probe_optimal_ns", k.probeOptimal.per(time.Nanosecond))
	m.set("linksched.bw_estimate_ns", k.bwEstimate.per(time.Nanosecond))
}

// leg is one recorded link occupation of a routed edge.
type leg struct {
	link   network.LinkID
	owner  linksched.Owner
	speed  float64
	cost   float64
	req    linksched.Request // what the scheduler asked for: the previous leg's interval, cost/speed
	placed linksched.Request // the recorded interval
	chunks []linksched.Chunk
}

// replay rebuilds one schedule's link state and times the kernels of
// its algorithm on it.
func (k *kernels) replay(tr *tracer, req int, algo string, s *sched.Schedule) error {
	ls, err := preset(algo)
	if err != nil {
		return err
	}
	opts := ls.Opts
	var routed []*sched.EdgeSchedule
	var legs []leg
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		routed = append(routed, es)
		cost := s.Graph.Edge(es.Edge).Cost
		prevStart, prevFinish := es.Base, es.Base
		for i, pl := range es.Placements {
			speed := s.Net.Link(pl.Link).Speed
			legs = append(legs, leg{
				link:   pl.Link,
				owner:  linksched.Owner{Edge: int(es.Edge), Leg: i},
				speed:  speed,
				cost:   cost,
				req:    linksched.Request{ES: prevStart, PF: prevFinish, Dur: cost / speed},
				placed: linksched.Request{ES: pl.Start, PF: pl.Finish, Dur: pl.Finish - pl.Start},
				chunks: pl.Chunks,
			})
			prevStart, prevFinish = pl.Start, pl.Finish
		}
	}
	root := tr.begin(-1, req, "replay", algo)
	defer tr.end(root)
	timed := func(layer string, t *timing, n int, call func(i int) error) error {
		start := tr.now()
		for i := 0; i < n; i++ {
			if err := call(i); err != nil {
				return err
			}
		}
		end := tr.now()
		tr.record(root, req, layer, algo, start, end)
		if t != nil {
			t.d += time.Duration(end - start)
			t.n += int64(n)
		}
		return nil
	}
	router := s.Net.NewRouter(nil)
	var cost float64 // the edge being routed
	dijkstra := func(relax network.RelaxFunc) error {
		return timed("network.dijkstra", &k.dijkstra, len(routed), func(i int) error {
			es := routed[i]
			cost = s.Graph.Edge(es.Edge).Cost
			_, _, err := router.DijkstraRoute(es.SrcProc, es.DstProc, network.Label{Start: es.Base, Finish: es.Base}, relax)
			return err
		})
	}

	switch opts.Engine {
	case sched.EngineSlots:
		tl := make([]linksched.Timeline, s.Net.NumLinks())
		if err := timed("linksched.insert_basic", &k.insertBasic, len(legs), func(i int) error {
			l := &legs[i]
			tl[l.link].InsertBasic(l.owner, l.placed)
			return nil
		}); err != nil {
			return err
		}
		for i := range tl {
			k.slotsTotal += tl[i].Len()
			k.slotsMax = max(k.slotsMax, tl[i].Len())
		}
		if opts.Routing == sched.RoutingDijkstra {
			if err := dijkstra(func(l network.Link, cur network.Label) network.Label {
				k.relaxCalls++
				start, finish := tl[l.ID].ProbeBasic(linksched.Request{ES: cur.Start, PF: cur.Finish, Dur: cost / l.Speed})
				return network.Label{Start: start, Finish: finish}
			}); err != nil {
				return err
			}
		}
		if opts.Insertion == sched.InsertionOptimal {
			slack := recordedSlack(s)
			if err := timed("linksched.probe_basic", &k.probeBasic, len(legs), func(i int) error {
				tl[legs[i].link].ProbeBasic(legs[i].req)
				return nil
			}); err != nil {
				return err
			}
			if err := timed("linksched.probe_optimal", &k.probeOptimal, len(legs), func(i int) error {
				tl[legs[i].link].ProbeOptimal(legs[i].req, slack)
				return nil
			}); err != nil {
				return err
			}
		}
	case sched.EngineBandwidth:
		bw := make([]linksched.BWTimeline, s.Net.NumLinks())
		if err := timed("linksched.bw_alloc", nil, len(legs), func(i int) error {
			l := &legs[i]
			for _, c := range l.chunks {
				if c.Volume > linksched.Eps {
					bw[l.link].Alloc(l.owner, c.Start, c.Volume, l.speed, c.Rate)
				}
			}
			k.bwChunks += len(l.chunks)
			return nil
		}); err != nil {
			return err
		}
		if err := dijkstra(func(l network.Link, cur network.Label) network.Label {
			k.relaxCalls++
			start, finish := bw[l.ID].EstimateFinish(cur.Start, cost, l.Speed)
			return network.Label{Start: start, Finish: math.Max(finish, cur.Finish)}
		}); err != nil {
			return err
		}
		if err := timed("linksched.bw_estimate", &k.bwEstimate, len(legs), func(i int) error {
			l := &legs[i]
			bw[l.link].EstimateFinish(l.req.ES, l.cost, l.speed)
			return nil
		}); err != nil {
			return err
		}
	}
	if opts.Routing == sched.RoutingBFS {
		return timed("network.bfs", &k.bfs, len(routed), func(i int) error {
			_, err := router.BFSRoute(routed[i].SrcProc, routed[i].DstProc)
			return err
		})
	}
	return nil
}

// recordedSlack is the Lemma-2 deferrable time of a recorded leg: how
// far it could move before violating link causality with the edge's
// next leg; 0 on the last leg.
func recordedSlack(s *sched.Schedule) linksched.SlackFunc {
	return func(o linksched.Owner) float64 {
		es := s.Edges[o.Edge]
		if es == nil || o.Leg >= len(es.Placements)-1 {
			return 0
		}
		cur, next := es.Placements[o.Leg], es.Placements[o.Leg+1]
		return math.Max(0, math.Min(next.Start-cur.Start, next.Finish-cur.Finish))
	}
}
