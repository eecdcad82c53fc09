// Package verify checks every invariant of the edge-scheduling model
// against a produced schedule: task precedence and data-ready times,
// processor exclusivity, route connectivity, link causality along every
// route, exclusive-slot non-overlap, and bandwidth capacity for
// fractional transfers. The scheduling algorithms are trusted nowhere —
// integration and property tests run every schedule through Verify.
package verify

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fptime"
	"repro/internal/linksched"
	"repro/internal/network"
	"repro/internal/sched"
)

// All float comparisons go through internal/fptime's verification
// helpers (AbsTol/RelTol regime); see that package for the rationale.
func geq(a, b float64) bool { return fptime.Geq(a, b) }

// Violation describes one broken invariant.
type Violation struct {
	Rule string // short rule identifier, e.g. "precedence"
	Msg  string
}

func (v Violation) String() string { return v.Rule + ": " + v.Msg }

// Result aggregates all violations found in one schedule.
type Result struct {
	Violations []Violation
}

// OK reports whether no violations were found.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when the schedule is valid, or an error summarizing
// the first violations.
func (r *Result) Err() error {
	if r.OK() {
		return nil
	}
	msg := r.Violations[0].String()
	if n := len(r.Violations); n > 1 {
		msg = fmt.Sprintf("%s (and %d more violations)", msg, n-1)
	}
	return fmt.Errorf("verify: %s", msg)
}

func (r *Result) addf(rule, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// Verify checks the full invariant set of the edge-scheduling model.
// Ideal (contention-free) schedules get the reduced check set that is
// meaningful for them: placement sanity, processor exclusivity, and
// ideal-model precedence.
func Verify(s *sched.Schedule) *Result {
	r := &Result{}
	if s.Graph == nil || s.Net == nil {
		r.addf("structure", "schedule is missing graph or network")
		return r
	}
	verifyPlacements(s, r)
	verifyProcessorExclusivity(s, r)
	if s.Ideal {
		verifyIdealPrecedence(s, r)
	} else {
		verifyPrecedence(s, r)
		verifyRoutes(s, r)
		verifyLinkCausality(s, r)
		verifyLinkCapacity(s, r)
		verifyVolumes(s, r)
	}
	verifyMakespan(s, r)
	return r
}

// verifyPlacements checks every task is on a processor with the right
// execution time.
func verifyPlacements(s *sched.Schedule, r *Result) {
	if len(s.Tasks) != s.Graph.NumTasks() {
		r.addf("structure", "schedule has %d task placements, graph has %d tasks", len(s.Tasks), s.Graph.NumTasks())
		return
	}
	check := func(tp sched.TaskPlacement, what string) {
		if tp.Proc < 0 || int(tp.Proc) >= s.Net.NumNodes() {
			r.addf("placement", "%s %d mapped to invalid node %d", what, tp.Task, tp.Proc)
			return
		}
		node := s.Net.Node(tp.Proc)
		if node.Kind != network.Processor {
			r.addf("placement", "%s %d mapped to non-processor node %s", what, tp.Task, node.Name)
			return
		}
		if !fptime.Geq(tp.Start, 0) {
			r.addf("placement", "%s %d starts at negative time %v", what, tp.Task, tp.Start)
		}
		want := s.Graph.Task(tp.Task).Cost / node.Speed
		if !fptime.Close(tp.Finish-tp.Start, want) {
			r.addf("placement", "%s %d runs %v, want %v on %s", what, tp.Task, tp.Finish-tp.Start, want, node.Name)
		}
	}
	for _, tp := range s.Tasks {
		check(tp, "task")
	}
	for _, tp := range s.Duplicates {
		check(tp, "duplicate")
		if s.Graph.InDegree(tp.Task) != 0 {
			r.addf("placement", "duplicate of task %d which has predecessors (unsupported)", tp.Task)
		}
	}
}

// verifyProcessorExclusivity checks that tasks on the same processor
// never overlap, node by node in ID order. A placement on a node the
// topology lacks is verifyPlacements' to report.
func verifyProcessorExclusivity(s *sched.Schedule, r *Result) {
	byProc := make([][]sched.TaskPlacement, s.Net.NumNodes())
	for _, tps := range [][]sched.TaskPlacement{s.Tasks, s.Duplicates} {
		for _, tp := range tps {
			if tp.Proc >= 0 && int(tp.Proc) < len(byProc) {
				byProc[tp.Proc] = append(byProc[tp.Proc], tp)
			}
		}
	}
	for proc, tps := range byProc {
		sort.Slice(tps, func(i, j int) bool { return tps[i].Start < tps[j].Start })
		for i := 1; i < len(tps); i++ {
			if !geq(tps[i].Start, tps[i-1].Finish) {
				r.addf("processor", "tasks %d and %d overlap on node %d ([%v,%v] vs [%v,%v])",
					tps[i-1].Task, tps[i].Task, proc,
					tps[i-1].Start, tps[i-1].Finish, tps[i].Start, tps[i].Finish)
			}
		}
	}
}

// verifyPrecedence checks data-ready times under the contention model:
// a task starts only after all incoming communications arrive.
func verifyPrecedence(s *sched.Schedule, r *Result) {
	if len(s.Edges) != s.Graph.NumEdges() {
		r.addf("structure", "schedule has %d edge entries, graph has %d edges", len(s.Edges), s.Graph.NumEdges())
		return
	}
	for _, e := range s.Graph.Edges() {
		src, dst := s.Tasks[e.From], s.Tasks[e.To]
		es := s.Edges[e.ID]
		if src.Proc == dst.Proc {
			if es != nil {
				r.addf("edge", "edge %d is intra-processor but has a network schedule", e.ID)
			}
			if !geq(dst.Start, src.Finish) {
				r.addf("precedence", "task %d starts at %v before predecessor %d finishes at %v",
					e.To, dst.Start, e.From, src.Finish)
			}
			continue
		}
		if es == nil {
			// Legal when a duplicate of the source task finishes on the
			// destination processor before the consumer starts.
			satisfied := false
			for _, d := range s.Duplicates {
				if d.Task == e.From && d.Proc == dst.Proc && geq(dst.Start, d.Finish) {
					satisfied = true
					break
				}
			}
			if !satisfied {
				r.addf("edge", "edge %d crosses processors but has no network schedule (and no satisfying duplicate)", e.ID)
			}
			continue
		}
		if es.SrcProc != src.Proc || es.DstProc != dst.Proc {
			r.addf("edge", "edge %d schedule endpoints (%d->%d) disagree with task placements (%d->%d)",
				e.ID, es.SrcProc, es.DstProc, src.Proc, dst.Proc)
		}
		if !geq(dst.Start, es.Arrival) {
			r.addf("precedence", "task %d starts at %v before edge %d arrives at %v",
				e.To, dst.Start, e.ID, es.Arrival)
		}
		if n := len(es.Placements); n > 0 {
			last := es.Placements[n-1]
			if !fptime.Close(last.Finish, es.Arrival) {
				r.addf("edge", "edge %d arrival %v disagrees with last-link finish %v", e.ID, es.Arrival, last.Finish)
			}
			first := es.Placements[0]
			if !geq(first.Start, src.Finish) {
				r.addf("causality", "edge %d enters the network at %v before source task finishes at %v",
					e.ID, first.Start, src.Finish)
			}
			if !geq(first.Finish, src.Finish) {
				r.addf("causality", "edge %d leaves first link at %v before source task finishes at %v",
					e.ID, first.Finish, src.Finish)
			}
		}
	}
}

// verifyIdealPrecedence checks precedence under the classic
// contention-free model with MLS communication delays.
func verifyIdealPrecedence(s *sched.Schedule, r *Result) {
	mls := s.Net.MeanLinkSpeed()
	for _, e := range s.Graph.Edges() {
		src, dst := s.Tasks[e.From], s.Tasks[e.To]
		arr := src.Finish
		if src.Proc != dst.Proc {
			arr += e.Cost / mls
		}
		if !geq(dst.Start, arr) {
			r.addf("precedence", "ideal: task %d starts at %v before data from %d arrives at %v",
				e.To, dst.Start, e.From, arr)
		}
	}
}

// verifyRoutes checks every edge schedule's route is a connected path
// between its processors with one placement per link.
func verifyRoutes(s *sched.Schedule, r *Result) {
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		if err := s.Net.ValidateRoute(es.SrcProc, es.DstProc, es.Route); err != nil {
			r.addf("route", "edge %d: %v", es.Edge, err)
		}
		if len(es.Placements) != len(es.Route) {
			r.addf("route", "edge %d has %d placements for %d route links", es.Edge, len(es.Placements), len(es.Route))
			continue
		}
		for i, p := range es.Placements {
			if p.Link != es.Route[i] {
				r.addf("route", "edge %d placement %d on link %d, route says %d", es.Edge, i, p.Link, es.Route[i])
			}
		}
	}
}

// verifyLinkCausality checks the link causality condition along every
// route: start and finish times are non-decreasing from link to link.
func verifyLinkCausality(s *sched.Schedule, r *Result) {
	hd := s.HopDelay
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		for i := 1; i < len(es.Placements); i++ {
			prev, cur := es.Placements[i-1], es.Placements[i]
			if s.Switching == sched.StoreAndForward {
				if !geq(cur.Start, prev.Finish+hd) {
					r.addf("causality", "edge %d (store-and-forward) starts on link %d at %v before link %d finished at %v (+hop delay %v)",
						es.Edge, cur.Link, cur.Start, prev.Link, prev.Finish, hd)
				}
				continue
			}
			if !geq(cur.Start, prev.Start+hd) {
				r.addf("causality", "edge %d starts on link %d at %v before link %d at %v (+hop delay %v)",
					es.Edge, cur.Link, cur.Start, prev.Link, prev.Start, hd)
			}
			if !geq(cur.Finish, prev.Finish+hd) {
				r.addf("causality", "edge %d finishes on link %d at %v before link %d at %v (+hop delay %v)",
					es.Edge, cur.Link, cur.Finish, prev.Link, prev.Finish, hd)
			}
		}
		// For chunked (bandwidth) transfers additionally check that the
		// cumulative outflow on each link never exceeds the cumulative
		// inflow from the previous link (shifted by the hop delay),
		// sampled at chunk boundaries.
		for i := 1; i < len(es.Placements); i++ {
			prev, cur := es.Placements[i-1], es.Placements[i]
			if prev.Chunks == nil || cur.Chunks == nil {
				continue
			}
			for _, c := range cur.Chunks {
				for _, t := range []float64{c.Start, c.End} {
					in := volumeBy(prev.Chunks, t-hd)
					out := volumeBy(cur.Chunks, t)
					if !fptime.LeqRel(out, in, 1e-6) {
						r.addf("causality", "edge %d: link %d forwarded %v by t=%v but only %v arrived from link %d",
							es.Edge, cur.Link, out, t, in, prev.Link)
					}
				}
			}
		}
	}
}

// volumeBy returns the data volume moved by the chunk list up to time t.
func volumeBy(chunks []linksched.Chunk, t float64) float64 {
	v := 0.0
	for _, c := range chunks {
		if fptime.LeqEps(c.End, t) {
			v += c.Volume
		} else if c.Start < t {
			frac := (t - c.Start) / (c.End - c.Start)
			v += c.Volume * frac
		}
	}
	return v
}

// verifyLinkCapacity checks per-link resource limits, link by link in
// ID order: exclusive slots never overlap, and bandwidth shares never
// sum above 1. Slot placements count as rate-1.0 uses so mixed
// schedules are handled. A placement on a link the topology lacks is
// verifyRoutes' to report.
func verifyLinkCapacity(s *sched.Schedule, r *Result) {
	type eventT struct {
		t    float64
		rate float64
	}
	uses := make([][]eventT, s.Net.NumLinks())
	add := func(l network.LinkID, start, end, rate float64) {
		if l < 0 || int(l) >= len(uses) || fptime.Leq(end-start, 0) {
			return
		}
		uses[l] = append(uses[l], eventT{t: start, rate: rate}, eventT{t: end, rate: -rate})
	}
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		for _, p := range es.Placements {
			if p.Chunks == nil {
				add(p.Link, p.Start, p.Finish, 1)
				continue
			}
			for _, c := range p.Chunks {
				if !fptime.Geq(c.Rate, 0) || !fptime.Leq(c.Rate, 1) {
					r.addf("capacity", "edge %d chunk on link %d has rate %v outside [0,1]", es.Edge, p.Link, c.Rate)
				}
				add(p.Link, c.Start, c.End, c.Rate)
			}
		}
	}
	for l, evs := range uses {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].t != evs[j].t {
				return evs[i].t < evs[j].t
			}
			return evs[i].rate < evs[j].rate // process releases first
		})
		// An overload only counts if it persists: adjacent start/end
		// events can be separated by float noise, producing a
		// zero-duration load spike that is not a real conflict.
		load := 0.0
		for i, ev := range evs {
			load += ev.rate
			if load <= 1+1e-5 {
				continue
			}
			until := ev.t
			if i+1 < len(evs) {
				until = evs[i+1].t
			}
			if !fptime.Leq(until-ev.t, 0) {
				r.addf("capacity", "link %d oversubscribed: load %.6f during [%v, %v]", l, load, ev.t, until)
				break
			}
		}
	}
}

// verifyVolumes checks each placement moves the edge's full
// communication volume: slot duration = c(e)/s(L) for exclusive slots,
// sum of chunk volumes = c(e) for bandwidth transfers.
func verifyVolumes(s *sched.Schedule, r *Result) {
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		cost := s.Graph.Edge(es.Edge).Cost
		for _, p := range es.Placements {
			if p.Link < 0 || int(p.Link) >= s.Net.NumLinks() {
				continue // verifyRoutes reports it
			}
			link := s.Net.Link(p.Link)
			if p.Chunks == nil {
				want := cost / link.Speed
				if !fptime.Close(p.Finish-p.Start, want) {
					r.addf("volume", "edge %d occupies link %d for %v, want %v",
						es.Edge, p.Link, p.Finish-p.Start, want)
				}
				continue
			}
			vol := 0.0
			prevEnd := math.Inf(-1)
			for _, c := range p.Chunks {
				vol += c.Volume
				if !fptime.Geq(c.Start, prevEnd) {
					r.addf("volume", "edge %d chunks overlap on link %d", es.Edge, p.Link)
				}
				prevEnd = c.End
				wantVol := c.Rate * link.Speed * (c.End - c.Start)
				if !fptime.CloseRel(c.Volume, wantVol, 1e-6) {
					r.addf("volume", "edge %d chunk on link %d carries %v, rate*speed*dur=%v",
						es.Edge, p.Link, c.Volume, wantVol)
				}
			}
			if !fptime.CloseRel(vol, cost, 1e-6) {
				r.addf("volume", "edge %d moved %v over link %d, want %v", es.Edge, vol, p.Link, cost)
			}
		}
	}
}

// verifyMakespan checks the reported makespan matches the placements.
func verifyMakespan(s *sched.Schedule, r *Result) {
	m := 0.0
	for _, tp := range s.Tasks {
		if tp.Finish > m {
			m = tp.Finish
		}
	}
	if !fptime.Close(s.Makespan, m) {
		r.addf("makespan", "reported %v, placements say %v", s.Makespan, m)
	}
}
