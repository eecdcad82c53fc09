// Package analysis computes quantitative diagnostics of a schedule:
// speedup and efficiency against serial execution, lower bounds on the
// achievable makespan, per-resource utilization, contention delays of
// the routed communications, and the schedule's critical chain (the
// sequence of tasks, transfers, and waits that pins the makespan).
package analysis

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/fptime"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Report is the full analysis of one schedule.
type Report struct {
	Algorithm string
	Makespan  float64

	// SerialTime is the best single-processor execution time: total
	// work divided by the fastest processor's speed.
	SerialTime float64
	// Speedup is SerialTime / Makespan.
	Speedup float64
	// Efficiency is Speedup / #processors.
	Efficiency float64

	// CPBound is the critical-path lower bound: the longest
	// computation-only path executed at the fastest processor speed.
	// No schedule on this machine can beat it.
	CPBound float64
	// WorkBound is the work lower bound: total work divided by the
	// aggregate processing speed.
	WorkBound float64

	// ProcUtil summarizes per-processor busy fractions of [0, makespan].
	ProcUtil stats.Summary
	// LinkUtil summarizes per-used-link busy fractions.
	LinkUtil stats.Summary
	// BusiestLink identifies the most loaded link (-1 if none used).
	BusiestLink     network.LinkID
	BusiestLinkUtil float64

	// RoutedEdges is the number of communications that crossed the
	// network; ContentionDelay summarizes, for each of them,
	// arrival − base − bottleneck transfer time: the extra time caused
	// by contention, routing detours, and hop/switching rules.
	RoutedEdges     int
	ContentionDelay stats.Summary
	// WorstDelays lists the (up to) ten most-delayed communications.
	WorstDelays []EdgeDelay

	// CriticalChain is the blocking chain ending at the task that
	// finishes last, in execution order.
	CriticalChain []ChainLink
	// ChainBreakdown sums the chain's time by category.
	ChainBreakdown Breakdown
}

// ChainKind categorizes a segment of the critical chain.
type ChainKind int

const (
	// ChainCompute is a task execution.
	ChainCompute ChainKind = iota
	// ChainComm is a communication transfer (base to arrival).
	ChainComm
	// ChainProcWait is time a task waited for its processor to free up.
	ChainProcWait
	// ChainIdle is unattributed wait (e.g. ready-time gaps).
	ChainIdle
)

func (k ChainKind) String() string {
	switch k {
	case ChainCompute:
		return "compute"
	case ChainComm:
		return "comm"
	case ChainProcWait:
		return "proc-wait"
	case ChainIdle:
		return "idle"
	}
	return fmt.Sprintf("ChainKind(%d)", int(k))
}

// ChainLink is one segment of the critical chain.
type ChainLink struct {
	Kind  ChainKind
	Start float64
	End   float64
	// Task is set for compute and proc-wait segments.
	Task dag.TaskID
	// Edge is set for comm segments.
	Edge dag.EdgeID
	// Detail is a short human-readable description.
	Detail string
}

// Dur returns the segment duration.
func (c ChainLink) Dur() float64 { return c.End - c.Start }

// Breakdown aggregates chain time per category.
type Breakdown struct {
	Compute  float64
	Comm     float64
	ProcWait float64
	Idle     float64
}

// Total returns the sum over all categories.
func (b Breakdown) Total() float64 { return b.Compute + b.Comm + b.ProcWait + b.Idle }

// Analyze computes the full report for a schedule. Ideal
// (contention-free) schedules get utilization/speedup metrics but no
// link or contention analysis.
func Analyze(s *sched.Schedule) *Report {
	r := &Report{Algorithm: s.Algorithm, Makespan: s.Makespan, BusiestLink: -1}
	analyzeSpeedup(s, r)
	analyzeUtilization(s, r)
	if !s.Ideal {
		analyzeContention(s, r)
		analyzeCriticalChain(s, r)
	}
	return r
}

func analyzeSpeedup(s *sched.Schedule, r *Report) {
	fastest := 0.0
	totalSpeed := 0.0
	for i := range s.Net.NumProcessors() {
		sp := s.Net.Node(s.Net.Processor(i)).Speed
		totalSpeed += sp
		if sp > fastest {
			fastest = sp
		}
	}
	if fastest <= 0 {
		return
	}
	work := s.Graph.TotalTaskCost()
	r.SerialTime = work / fastest
	if s.Makespan > 0 {
		r.Speedup = r.SerialTime / s.Makespan
		r.Efficiency = r.Speedup / float64(s.Net.NumProcessors())
	}
	r.WorkBound = work / totalSpeed
	// Critical path of computation only (communication can be hidden
	// by colocations, so only w counts), at the fastest speed.
	r.CPBound = s.Graph.CompCriticalPathLength() / fastest
}

func analyzeUtilization(s *sched.Schedule, r *Report) {
	if s.Makespan <= 0 {
		return
	}
	util := s.ProcUtilization()
	procs := make([]float64, 0, s.Net.NumProcessors())
	for i := range s.Net.NumProcessors() {
		procs = append(procs, util[s.Net.Processor(i)])
	}
	sort.Float64s(procs)
	r.ProcUtil = stats.Summarize(procs)

	busy := make([]float64, s.Net.NumLinks())
	used := make([]bool, len(busy))
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		for _, pl := range es.Placements {
			if pl.Chunks == nil {
				busy[pl.Link] += pl.Finish - pl.Start
				used[pl.Link] = true
				continue
			}
			for _, c := range pl.Chunks {
				busy[pl.Link] += (c.End - c.Start) * c.Rate
				used[pl.Link] = true
			}
		}
	}
	// Links in ID order, so the first of tied links is the busiest.
	var links []float64
	for id, b := range busy {
		if !used[id] {
			continue
		}
		u := b / s.Makespan
		links = append(links, u)
		if u > r.BusiestLinkUtil {
			r.BusiestLinkUtil = u
			r.BusiestLink = network.LinkID(id)
		}
	}
	sort.Float64s(links)
	r.LinkUtil = stats.Summarize(links)
}

// EdgeDelay records one routed edge's avoidable delay for the
// worst-offender table.
type EdgeDelay struct {
	Edge  dag.EdgeID
	Delay float64
	Hops  int
}

func analyzeContention(s *sched.Schedule, r *Report) {
	var delays []float64
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		r.RoutedEdges++
		cost := s.Graph.Edge(es.Edge).Cost
		// Uncontended cut-through arrival = base + bottleneck link
		// transfer time (+ hop delays). Store-and-forward would sum
		// the legs; using the cut-through bound keeps the metric an
		// upper bound on avoidable delay in both modes.
		bottleneck := 0.0
		for _, lid := range es.Route {
			if d := cost / s.Net.Link(lid).Speed; d > bottleneck {
				bottleneck = d
			}
		}
		ideal := es.Base + bottleneck + float64(len(es.Route)-1)*s.HopDelay
		d := es.Arrival - ideal
		if d < 0 {
			d = 0
		}
		delays = append(delays, d)
		r.WorstDelays = append(r.WorstDelays, EdgeDelay{Edge: es.Edge, Delay: d, Hops: len(es.Route)})
	}
	r.ContentionDelay = stats.Summarize(delays)
	sort.Slice(r.WorstDelays, func(i, j int) bool {
		// edgelint:ignore floateq — exact sort tiebreak for a stable order.
		if r.WorstDelays[i].Delay != r.WorstDelays[j].Delay {
			return r.WorstDelays[i].Delay > r.WorstDelays[j].Delay
		}
		return r.WorstDelays[i].Edge < r.WorstDelays[j].Edge
	})
	if len(r.WorstDelays) > 10 {
		r.WorstDelays = r.WorstDelays[:10]
	}
}

// analyzeCriticalChain walks backwards from the last-finishing task,
// attributing each wait to its cause.
func analyzeCriticalChain(s *sched.Schedule, r *Report) {
	// Last task by finish.
	last := dag.TaskID(-1)
	for _, tp := range s.Tasks {
		if last < 0 || tp.Finish > s.Tasks[last].Finish {
			last = tp.Task
		}
	}
	if last < 0 {
		return
	}
	// Previous task per (proc, start) for proc-wait attribution; -1
	// for the first task on its processor.
	prevOnProc := make([]dag.TaskID, len(s.Tasks))
	byProc := make([][]dag.TaskID, s.Net.NumNodes())
	for _, tp := range s.Tasks {
		byProc[tp.Proc] = append(byProc[tp.Proc], tp.Task)
	}
	for _, ids := range byProc {
		sort.Slice(ids, func(i, j int) bool { return s.Tasks[ids[i]].Start < s.Tasks[ids[j]].Start })
		for i, id := range ids {
			prevOnProc[id] = -1
			if i > 0 {
				prevOnProc[id] = ids[i-1]
			}
		}
	}

	var chain []ChainLink
	cur := last
	guard := 0
	for guard < 4*s.Graph.NumTasks()+8 {
		guard++
		tp := s.Tasks[cur]
		chain = append(chain, ChainLink{
			Kind: ChainCompute, Start: tp.Start, End: tp.Finish, Task: cur,
			Detail: fmt.Sprintf("task %s on %s", s.Graph.Task(cur).Name, s.Net.Node(tp.Proc).Name),
		})
		// What pinned tp.Start?
		// 1. The latest-arriving incoming communication.
		bestArr := 0.0
		bestEdge := dag.EdgeID(-1)
		for _, eid := range s.Graph.Pred(cur) {
			arr := s.ArrivalOf(eid)
			if arr > bestArr {
				bestArr = arr
				bestEdge = eid
			}
		}
		// 2. The previous task on the processor.
		prev := prevOnProc[cur]
		hasPrev := prev >= 0
		prevFinish := 0.0
		if hasPrev {
			prevFinish = s.Tasks[prev].Finish
		}
		const tol = 1e-6
		switch {
		case hasPrev && fptime.Geq(prevFinish, bestArr) && fptime.Geq(prevFinish, tp.Start):
			// Processor was the binding constraint; continue through
			// the blocking task. Everything between data readiness and
			// start is processor wait.
			if tp.Start-bestArr > tol {
				chain = append(chain, ChainLink{
					Kind: ChainProcWait, Start: bestArr, End: tp.Start, Task: cur,
					Detail: fmt.Sprintf("waiting for %s on %s", s.Graph.Task(prev).Name, s.Net.Node(tp.Proc).Name),
				})
			}
			cur = prev
		case bestEdge >= 0 && fptime.Geq(bestArr, tp.Start):
			// Data arrival was binding.
			es := s.Edges[bestEdge]
			e := s.Graph.Edge(bestEdge)
			next := e.From
			if es != nil {
				chain = append(chain, ChainLink{
					Kind: ChainComm, Start: es.Base, End: es.Arrival, Edge: bestEdge,
					Detail: fmt.Sprintf("edge %s->%s over %d links", s.Graph.Task(e.From).Name, s.Graph.Task(e.To).Name, len(es.Route)),
				})
				// Under the at-ready rule the transfer could not begin
				// before the LAST predecessor finished; that task, not
				// necessarily the edge's source, pins the chain.
				latest := e.From
				for _, eid := range s.Graph.Pred(cur) {
					if f := s.Tasks[s.Graph.Edge(eid).From].Finish; f > s.Tasks[latest].Finish {
						latest = s.Graph.Edge(eid).From
					}
				}
				if fptime.Close(s.Tasks[latest].Finish, es.Base) {
					next = latest
				}
			}
			cur = next
		case bestEdge >= 0:
			// Neither resource pins start exactly (e.g. the ready-time
			// rule); attribute as idle and follow the latest data.
			chain = append(chain, ChainLink{
				Kind: ChainIdle, Start: bestArr, End: tp.Start, Task: cur,
				Detail: "ready-time / scheduling gap",
			})
			cur = s.Graph.Edge(bestEdge).From
		default:
			// A source task: the chain is complete.
			guard = math.MaxInt32
		}
		if guard == math.MaxInt32 {
			break
		}
	}
	// Reverse into execution order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	r.CriticalChain = chain
	for _, c := range chain {
		switch c.Kind {
		case ChainCompute:
			r.ChainBreakdown.Compute += c.Dur()
		case ChainComm:
			r.ChainBreakdown.Comm += c.Dur()
		case ChainProcWait:
			r.ChainBreakdown.ProcWait += c.Dur()
		case ChainIdle:
			r.ChainBreakdown.Idle += c.Dur()
		}
	}
}

// WriteReport renders the report as readable text.
func WriteReport(w io.Writer, r *Report) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("schedule analysis: %s\n", r.Algorithm); err != nil {
		return err
	}
	if err := p("  makespan %12.2f   (lower bounds: critical path %.2f, work %.2f)\n",
		r.Makespan, r.CPBound, r.WorkBound); err != nil {
		return err
	}
	if err := p("  speedup  %12.2f   efficiency %.1f%%   (serial %.2f)\n",
		r.Speedup, 100*r.Efficiency, r.SerialTime); err != nil {
		return err
	}
	if err := p("  processor utilization: mean %.1f%%  max %.1f%%\n",
		100*r.ProcUtil.Mean, 100*r.ProcUtil.Max); err != nil {
		return err
	}
	if r.LinkUtil.N > 0 {
		if err := p("  link utilization (used links): mean %.1f%%  busiest L%d at %.1f%%\n",
			100*r.LinkUtil.Mean, r.BusiestLink, 100*r.BusiestLinkUtil); err != nil {
			return err
		}
	}
	if r.RoutedEdges > 0 {
		if err := p("  contention delay over %d routed edges: mean %.2f  max %.2f\n",
			r.RoutedEdges, r.ContentionDelay.Mean, r.ContentionDelay.Max); err != nil {
			return err
		}
		for i, d := range r.WorstDelays {
			if d.Delay <= 0 || i >= 5 {
				break
			}
			if err := p("    worst #%d: edge %d delayed %.2f over %d hops\n", i+1, d.Edge, d.Delay, d.Hops); err != nil {
				return err
			}
		}
	}
	if len(r.CriticalChain) > 0 {
		b := r.ChainBreakdown
		if err := p("  critical chain (%d segments): compute %.1f, comm %.1f, proc-wait %.1f, idle %.1f\n",
			len(r.CriticalChain), b.Compute, b.Comm, b.ProcWait, b.Idle); err != nil {
			return err
		}
		for _, c := range r.CriticalChain {
			if err := p("    [%9.2f, %9.2f] %-9s %s\n", c.Start, c.End, c.Kind, c.Detail); err != nil {
				return err
			}
		}
	}
	return nil
}
