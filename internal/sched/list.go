package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/dag"
	"repro/internal/fptime"
	"repro/internal/linksched"
	"repro/internal/network"
)

// Routing selects the route-finding policy.
type Routing int

const (
	// RoutingBFS is minimal (fewest-links) routing via breadth-first
	// search — the Basic Algorithm's policy.
	RoutingBFS Routing = iota
	// RoutingDijkstra is the paper's modified routing (§4.3): Dijkstra
	// whose distance is the edge's finish time on each link, probed
	// against the current link workload.
	RoutingDijkstra
)

func (r Routing) String() string {
	switch r {
	case RoutingBFS:
		return "bfs"
	case RoutingDijkstra:
		return "dijkstra"
	}
	return fmt.Sprintf("Routing(%d)", int(r))
}

// Insertion selects the slot insertion policy on route links
// (exclusive-slot engine only).
type Insertion int

const (
	// InsertionBasic places each edge in the earliest idle interval
	// without touching existing slots (BA, §3).
	InsertionBasic Insertion = iota
	// InsertionOptimal may defer already-scheduled edges within their
	// causality slack to open an earlier interval (OIHSA, §4.4).
	InsertionOptimal
)

func (i Insertion) String() string {
	switch i {
	case InsertionBasic:
		return "basic"
	case InsertionOptimal:
		return "optimal"
	}
	return fmt.Sprintf("Insertion(%d)", int(i))
}

// EdgeOrder selects the order in which a ready task's incoming
// communications are scheduled.
type EdgeOrder int

const (
	// EdgeOrderFIFO schedules incoming edges in graph insertion order
	// (the Basic Algorithm does not prioritize edges).
	EdgeOrderFIFO EdgeOrder = iota
	// EdgeOrderDescCost schedules the costliest edge first (§4.2):
	// the large edge dominates the task's start time, and small edges
	// can still find earlier idle intervals afterwards.
	EdgeOrderDescCost
	// EdgeOrderAscCost schedules the cheapest edge first (ablation).
	EdgeOrderAscCost
)

func (o EdgeOrder) String() string {
	switch o {
	case EdgeOrderFIFO:
		return "fifo"
	case EdgeOrderDescCost:
		return "desc"
	case EdgeOrderAscCost:
		return "asc"
	}
	return fmt.Sprintf("EdgeOrder(%d)", int(o))
}

// ProcSelect selects the processor-choice policy for a ready task.
type ProcSelect int

const (
	// ProcSelectEFT tentatively schedules the task (and all its
	// incoming communications) on every processor and keeps the one
	// with the earliest finish time — BA's policy. It is accurate but
	// expensive: it schedules each task |P| times.
	ProcSelectEFT ProcSelect = iota
	// ProcSelectEstimate is OIHSA's closed-form criterion (§4.1):
	// minimize max(max_j(tf(n_j) + c(e_j)/MLS), tf(P)) + w(n)/s(P),
	// with MLS the mean link speed and the communication term dropped
	// for predecessors already on P.
	ProcSelectEstimate
	// ProcSelectNoComm is the Basic Algorithm's processor choice as the
	// paper characterizes it (§4.1: BA picks "the earliest finish time
	// of the task ... while ignoring the effect of edge communication"):
	// minimize max(ready(n), tf(P)) + w(n)/s(P) with no communication
	// term at all.
	ProcSelectNoComm
)

func (p ProcSelect) String() string {
	switch p {
	case ProcSelectEFT:
		return "eft"
	case ProcSelectEstimate:
		return "estimate"
	case ProcSelectNoComm:
		return "nocomm"
	}
	return fmt.Sprintf("ProcSelect(%d)", int(p))
}

// CommEngine selects the link transfer model. (Formerly named Engine;
// that name now belongs to the long-lived scheduling engine.)
type CommEngine int

const (
	// EngineSlots gives each communication exclusive use of a link for
	// a contiguous interval (BA, OIHSA).
	EngineSlots CommEngine = iota
	// EngineBandwidth lets communications share a link's bandwidth in
	// fractions, forwarding chunks downstream no faster than they
	// arrive (BBSA, §5).
	EngineBandwidth
	// EnginePackets divides every message into packets of
	// Options.PacketSize volume units; each packet occupies each route
	// link exclusively and is forwarded only after it is fully
	// received (packet store-and-forward), so packets of one message
	// pipeline across the route. The paper assumes circuit switching
	// and notes BA "does not consider the possible division of
	// communication into packets" — this engine is that extension.
	EnginePackets
)

func (e CommEngine) String() string {
	switch e {
	case EngineSlots:
		return "slots"
	case EngineBandwidth:
		return "bandwidth"
	case EnginePackets:
		return "packets"
	}
	return fmt.Sprintf("CommEngine(%d)", int(e))
}

// Switching selects the network switching technique, i.e. how a
// message propagates across the links of its route.
type Switching int

const (
	// CutThrough lets a message stream through intermediate stations:
	// its occupation of the next link may start as soon as it started
	// on the previous one (§2.2, the paper's model).
	CutThrough Switching = iota
	// StoreAndForward buffers the whole message at every intermediate
	// station: the next link's transfer starts only after the previous
	// link's transfer completed. The paper contrasts its model against
	// this technique (§2.2); it is provided as an extension so the
	// difference can be measured (ablation A8).
	StoreAndForward
)

func (s Switching) String() string {
	switch s {
	case CutThrough:
		return "cut-through"
	case StoreAndForward:
		return "store-and-forward"
	}
	return fmt.Sprintf("Switching(%d)", int(s))
}

// CommStart selects when a ready task's incoming communications may
// enter the network.
type CommStart int

const (
	// CommAtReady starts every incoming communication at the ready
	// task's ready time — the finish of its latest predecessor. This is
	// the paper's dynamic-scheduling semantics (§4.1: "the start time
	// of the communication data from predecessors to the ready task is
	// all the same, that is, the finish time of the predecessor which
	// finishes latest at runtime"): the task's target processor is only
	// decided once the task is ready, so no data can be shipped before.
	CommAtReady CommStart = iota
	// CommAtSourceFinish lets each communication enter the network as
	// soon as its own source task finishes — an eager extension beyond
	// the paper that presumes the mapping is known in advance.
	CommAtSourceFinish
)

func (c CommStart) String() string {
	switch c {
	case CommAtReady:
		return "ready"
	case CommAtSourceFinish:
		return "eager"
	}
	return fmt.Sprintf("CommStart(%d)", int(c))
}

// Priority selects the static task ordering of the list scheduler.
type Priority int

const (
	// PriorityBottomLevel orders by decreasing bottom level including
	// communication costs — the paper's scheme (§2.1).
	PriorityBottomLevel Priority = iota
	// PriorityCompBottomLevel orders by decreasing computation-only
	// bottom level (classic DLS-style static levels).
	PriorityCompBottomLevel
	// PriorityCriticality orders by decreasing bl+tl (critical-path
	// tasks first), clamped to stay topological.
	PriorityCriticality
)

func (p Priority) String() string {
	switch p {
	case PriorityBottomLevel:
		return "bl"
	case PriorityCompBottomLevel:
		return "bl-comp"
	case PriorityCriticality:
		return "bl+tl"
	}
	return fmt.Sprintf("Priority(%d)", int(p))
}

// TaskPolicy selects how tasks are placed on processor timelines.
type TaskPolicy int

const (
	// TaskAppend starts a task no earlier than everything already
	// scheduled on its processor: start = max(DRT, t_f(P)). This is
	// the paper's model (§2.1 uses the processor's current finish
	// time t_f(P)).
	TaskAppend TaskPolicy = iota
	// TaskInsertion allows a task into an earlier idle gap of its
	// processor, like insertion-based variants of HEFT — an extension
	// beyond the paper (ablation A9).
	TaskInsertion
)

func (p TaskPolicy) String() string {
	switch p {
	case TaskAppend:
		return "append"
	case TaskInsertion:
		return "insertion"
	}
	return fmt.Sprintf("TaskPolicy(%d)", int(p))
}

// Options configures the unified contention-aware list scheduler.
type Options struct {
	Routing    Routing
	Insertion  Insertion
	EdgeOrder  EdgeOrder
	ProcSelect ProcSelect
	Engine     CommEngine
	CommStart  CommStart
	// HopDelay is the switching delay added at every hop along a
	// route. The paper neglects it ("this delay is typically very
	// small ... but it can be included if necessary", §2.2); setting it
	// non-zero enables the extension: an edge's admissible start and
	// required finish on link k+1 are those of link k plus HopDelay.
	HopDelay float64
	// Switching selects cut-through (the paper's model, default) or
	// store-and-forward message propagation.
	Switching Switching
	// TaskPolicy selects append-only (the paper's model, default) or
	// insertion-based task placement on processors.
	TaskPolicy TaskPolicy
	// PacketSize is the volume units per packet for EnginePackets
	// (0 means 100).
	PacketSize float64
	// PacketOverhead models per-packet header/switching cost as extra
	// link occupation time per packet (default 0). Smaller packets
	// pipeline better but pay this overhead more often.
	PacketOverhead float64
	// Priority selects the static task ordering (default: bottom
	// levels with communication, the paper's scheme).
	Priority Priority
	// Duplication enables source-task duplication (an extension in the
	// spirit of the duplication-based algorithms the paper's intro
	// cites): when a ready task's data from a predecessor-free task
	// would arrive later than simply re-executing that task locally,
	// the predecessor is duplicated onto the destination processor and
	// the communication is dropped. Requires TaskAppend placement.
	Duplication bool
}

// resolve checks a policy set and fills in its defaults. It is the one
// options check, made where a scheduler binds its policies: oneShot
// per one-shot run, NewEngine once per engine. It rejects, naming the
// field, a policy outside its constants, a HopDelay, PacketSize or
// PacketOverhead that is negative, NaN or infinite, and duplication
// without append placement; a PacketSize of 0 becomes 100. A state
// runs only resolved options and reads them without fallbacks.
func (o Options) resolve() (Options, error) {
	for _, f := range [...]struct {
		name    string
		v, last int
	}{
		{"Routing", int(o.Routing), int(RoutingDijkstra)},
		{"Insertion", int(o.Insertion), int(InsertionOptimal)},
		{"EdgeOrder", int(o.EdgeOrder), int(EdgeOrderAscCost)},
		{"ProcSelect", int(o.ProcSelect), int(ProcSelectNoComm)},
		{"Engine", int(o.Engine), int(EnginePackets)},
		{"CommStart", int(o.CommStart), int(CommAtSourceFinish)},
		{"Switching", int(o.Switching), int(StoreAndForward)},
		{"TaskPolicy", int(o.TaskPolicy), int(TaskInsertion)},
		{"Priority", int(o.Priority), int(PriorityCriticality)},
	} {
		if f.v < 0 || f.v > f.last {
			return o, fmt.Errorf("sched: Options.%s %d is not a policy (0..%d)", f.name, f.v, f.last)
		}
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"HopDelay", o.HopDelay},
		{"PacketSize", o.PacketSize},
		{"PacketOverhead", o.PacketOverhead},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return o, fmt.Errorf("sched: Options.%s %v is not a finite non-negative number", f.name, f.v)
		}
	}
	if o.Duplication && o.TaskPolicy != TaskAppend {
		return o, fmt.Errorf("sched: Options.Duplication requires the append task policy")
	}
	if o.PacketSize == 0 {
		o.PacketSize = 100
	}
	return o, nil
}

// legBounds is the link causality rule (§2.2) between consecutive
// links of a route: from the previous leg's start and finish, the
// earliest start and the earliest finish of the next. Cut-through
// lets the next link start with the previous one, store-and-forward
// only once it finished; every link after the first (leg > 0) adds
// HopDelay to both.
func (o *Options) legBounds(prevStart, prevFinish float64, leg int) (es, pf float64) {
	es, pf = prevStart, prevFinish
	if o.Switching == StoreAndForward {
		es = prevFinish
	}
	if leg > 0 {
		es += o.HopDelay
		pf += o.HopDelay
	}
	return es, pf
}

// priorityOrder returns the task order selected by the options.
func priorityOrder(g *dag.Graph, p Priority) []dag.TaskID {
	switch p {
	case PriorityCompBottomLevel:
		return g.CompPriorityOrder()
	case PriorityCriticality:
		return g.CriticalityPriorityOrder()
	default: // PriorityBottomLevel, the one value resolve leaves
		// edgelint:ignore errflow — the error is always nil on a built graph
		order, _ := g.PriorityOrder()
		return order
	}
}

// ListScheduler is the unified contention-aware list scheduler. The
// three named algorithms are fixed Options presets; see NewBA,
// NewOIHSA and NewBBSA.
type ListScheduler struct {
	AlgorithmName string
	Opts          Options
}

// NewBA returns the Basic Algorithm as Han & Wang characterize it
// (§3, §4.1): static bottom-level order, BFS minimal routing, basic
// insertion on every route link, and earliest-finish processor
// selection that ignores edge communication. This is the baseline all
// of the paper's figures compare against.
func NewBA() *ListScheduler {
	return &ListScheduler{AlgorithmName: "BA", Opts: Options{
		Routing: RoutingBFS, Insertion: InsertionBasic,
		EdgeOrder: EdgeOrderFIFO, ProcSelect: ProcSelectNoComm, Engine: EngineSlots,
	}}
}

// NewBASinnen returns the stronger reading of Sinnen & Sousa's Basic
// Algorithm in which the earliest finish time of each candidate
// processor is evaluated by tentatively scheduling the task and all of
// its incoming communications under contention. It is far more
// expensive (|P| tentative schedules per task) and serves as the
// strong-baseline ablation (A5 in DESIGN.md).
func NewBASinnen() *ListScheduler {
	return &ListScheduler{AlgorithmName: "BA-EFT", Opts: Options{
		Routing: RoutingBFS, Insertion: InsertionBasic,
		EdgeOrder: EdgeOrderFIFO, ProcSelect: ProcSelectEFT, Engine: EngineSlots,
	}}
}

// NewOIHSA returns the paper's Optimal Insertion Hybrid Scheduling
// Algorithm.
func NewOIHSA() *ListScheduler {
	return &ListScheduler{AlgorithmName: "OIHSA", Opts: Options{
		Routing: RoutingDijkstra, Insertion: InsertionOptimal,
		EdgeOrder: EdgeOrderDescCost, ProcSelect: ProcSelectEstimate, Engine: EngineSlots,
	}}
}

// NewBBSA returns the paper's Bandwidth Based Scheduling Algorithm.
// (The paper does not spell out BBSA's processor choice; we reuse
// OIHSA's §4.1 criterion — see DESIGN.md.)
func NewBBSA() *ListScheduler {
	return &ListScheduler{AlgorithmName: "BBSA", Opts: Options{
		Routing: RoutingDijkstra, EdgeOrder: EdgeOrderDescCost,
		ProcSelect: ProcSelectEstimate, Engine: EngineBandwidth,
	}}
}

// NewCustom returns a scheduler with explicit options, used by the
// ablation experiments.
func NewCustom(name string, opts Options) *ListScheduler {
	return &ListScheduler{AlgorithmName: name, Opts: opts}
}

// Name implements Algorithm.
func (l *ListScheduler) Name() string { return l.AlgorithmName }

// state carries all mutable data of one scheduling run.
type state struct {
	g    *dag.Graph        // frozen after construction
	net  *network.Topology // frozen after construction
	opts Options

	// The timelines are stored by value in flat columns — one Timeline
	// per link ID — so reset empties them in place and keeps their
	// slabs for the next run. Zero values are valid empty timelines, so
	// non-processor entries of ptl need no sentinel.
	tl  []linksched.Timeline   // per link, slots engine
	bw  []linksched.BWTimeline // per link, bandwidth engine
	ptl []linksched.Timeline   // per processor node, insertion policy only
	mls float64

	procFinish []float64 // per node ID (processor entries only)
	tasks      []TaskPlacement
	edges      edgeStore       // columnar edge schedules, see edgestore.go
	dups       []TaskPlacement // duplicated source tasks (Duplication)

	tx *txn // active transaction, or nil
	// txFree is the reusable transaction journal: begin takes it,
	// rollback resets it and leaves it for the next probe, so the six
	// slice-backed journals are allocated once per state, not per
	// probe, and their timeline copies' slab arrays recycle across
	// probes.
	txFree *txn

	// router performs route searches with reused scratch buffers sized
	// to net, and keeps the BFS trees of the sources it has routed
	// from. reset rebuilds it only when the state is rebound to a
	// different topology, so the trees stay warm across an Engine
	// slot's requests.
	router *network.Router

	// probes and pruned count EFT work: tentative placements evaluated,
	// and candidates skipped by the finish lower bound. eftLB is
	// selectByEFT's per-processor lower-bound scratch.
	probes, pruned int64
	eftLB          []float64

	predBuf  []dag.EdgeID        // orderedPreds scratch
	pktBuf   []float64           // placeEdgePackets scratch
	shiftBuf []linksched.Shifted // InsertOptimal's shift list, reused
	// legBufs hold one leg's chunks before they are copied into the
	// edge arena: placeEdgePackets uses legBufs[0], placeEdgeBandwidth
	// alternates, the previous leg's chunks in one buffer and the
	// current leg's in the other.
	legBufs [2][]linksched.Chunk
}

// statePool holds the warm states of one-shot runs. A one-shot call
// borrows one for the length of the call, so steady-state calls reuse
// the timeline slabs, edge arenas, journals and router scratch of
// earlier calls instead of allocating them afresh; reset rebinds the
// state and leaves no residue (TestOneShotMatchesFreshState). The pool
// may drop its states at any garbage collection, which costs only a
// cold state.
var statePool = sync.Pool{New: func() any { return new(state) }}

// oneShot is the front door of the one-shot entry points
// (ListScheduler.Schedule and ScheduleAssignment): it resolves the
// options, then runs g on a state borrowed from statePool and hands the
// state back.
func oneShot(g *dag.Graph, net *network.Topology, opts Options, name string, assign []network.NodeID) (*Schedule, error) {
	opts, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	s := statePool.Get().(*state)
	defer func() {
		if s.release() {
			statePool.Put(s)
		}
	}()
	out, _, err := s.run(g, net, opts, name, assign)
	return out, err
}

// run binds s to a run of g on net under opts and schedules it: the one
// path of every state, pooled (oneShot), slot-owned (Engine.run) or
// fresh (the self-check's cold run). opts must have been resolved.
// rebound reports whether reset bound s to another topology.
func (s *state) run(g *dag.Graph, net *network.Topology, opts Options, name string, assign []network.NodeID) (out *Schedule, rebound bool, err error) {
	rebound = s.reset(g, net, opts)
	out, err = scheduleOn(s, name, assign)
	return out, rebound, err
}

// release ends a run on s and reports whether s may serve another.
// The graph and the task and duplicate columns belong to the finished
// run's caller (the columns escaped into its Schedule), so s drops its
// references to them. A state still inside a transaction — its run
// panicked mid-probe — is corrupt and must be discarded.
func (s *state) release() bool {
	if s.tx != nil {
		return false
	}
	s.g, s.tasks, s.dups = nil, nil, nil
	return true
}

// reset binds s to a run of g on net under opts and rewinds everything
// run-visible to the cold-start value while keeping every backing
// capacity it can. It is the one state initializer, reached through
// run by all three holders of states: Engine worker slots, the one-shot
// pool, and the self-check's fresh state.
// Whatever s did before — a different graph, topology or policy set —
// leaves no residue:
//
//   - the result reports whether net changed (an Engine counts those
//     as cold states); the router, with its BFS trees, is rebuilt only
//     when it routes over another topology;
//   - the timeline columns and processor clocks are sized from net and
//     opts and emptied, the edge arenas truncated, the probe counters
//     zeroed;
//   - the task column is rebuilt fresh and unplaced (the previous run's
//     Schedule owns the old one) and the duplicates dropped;
//   - the reusable journals are resized to the new entity counts, since
//     journal.put indexes its marks by entity ID unchecked.
func (s *state) reset(g *dag.Graph, net *network.Topology, opts Options) (rebound bool) {
	if s.tx != nil {
		panic("sched: reset inside a transaction")
	}
	rebound = s.net != net
	if s.router == nil || s.router.Topology() != net {
		s.router = net.NewRouter(nil)
	}
	s.g, s.net, s.opts = g, net, opts
	s.mls = net.MeanLinkSpeed()
	s.probes, s.pruned = 0, 0

	links, ptls := net.NumLinks(), 0
	if opts.TaskPolicy == TaskInsertion {
		ptls = net.NumNodes()
	}
	if opts.Engine == EngineBandwidth {
		s.tl = emptyColumn(s.tl, 0)
		s.bw = emptyColumn(s.bw, links)
	} else {
		s.tl = emptyColumn(s.tl, links)
		s.bw = emptyColumn(s.bw, 0)
	}
	s.ptl = emptyColumn(s.ptl, ptls)
	s.procFinish = sizeColumn(s.procFinish, net.NumNodes())
	clear(s.procFinish)
	s.tasks = make([]TaskPlacement, g.NumTasks())
	for i := range s.tasks {
		s.tasks[i] = TaskPlacement{Task: dag.TaskID(i), Proc: -1}
	}
	s.dups = nil
	s.edges.init(g.NumEdges())

	if s.txFree != nil {
		s.sizeJournals(s.txFree)
	}
	return rebound
}

// sizeColumn returns col resliced to n entries, reusing its backing
// array when it has the capacity. Reused entries keep their contents.
func sizeColumn[T any](col []T, n int) []T {
	if cap(col) < n {
		return make([]T, n)
	}
	return col[:n]
}

// emptyColumn sizes a timeline column to n entries and empties each
// one, keeping the slabs of reused entries for the next run.
func emptyColumn[T any, P interface {
	*T
	Reset()
}](col []T, n int) []T {
	col = sizeColumn(col, n)
	for i := range col {
		P(&col[i]).Reset()
	}
	return col
}

// Schedule implements Algorithm.
func (l *ListScheduler) Schedule(g *dag.Graph, net *network.Topology) (*Schedule, error) {
	return oneShot(g, net, l.Opts, l.AlgorithmName, nil)
}

// scheduleOn runs the unified list-scheduling loop on a bound state and
// returns its result. A nil assign selects each task's processor by the
// options' policy; otherwise assign fixes it (ScheduleAssignment).
func scheduleOn(s *state, name string, assign []network.NodeID) (*Schedule, error) {
	for _, tid := range priorityOrder(s.g, s.opts.Priority) {
		var proc network.NodeID
		var err error
		if assign != nil {
			proc = assign[tid]
		} else if proc, err = s.selectProcessor(tid); err != nil {
			return nil, err
		}
		if err := s.commitTask(tid, proc); err != nil {
			return nil, err
		}
	}
	return s.result(name), nil
}

// result materializes the finished run as a Schedule — the one
// Schedule builder of every state-backed scheduler. The Schedule owns
// s.tasks and s.dups (reset never reuses them) but no other state
// memory: materialize builds a private view of the edge store.
func (s *state) result(name string) *Schedule {
	return &Schedule{
		Algorithm:  name,
		Graph:      s.g,
		Net:        s.net,
		Tasks:      s.tasks,
		Edges:      s.edges.materialize(),
		Makespan:   makespan(s.tasks),
		HopDelay:   s.opts.HopDelay,
		Switching:  s.opts.Switching,
		Duplicates: s.dups,
	}
}

// selectProcessor picks the processor for a ready task per the
// configured policy. When no processor gives the task a finite score,
// the selection folds find no winner and the task is unplaceable.
func (s *state) selectProcessor(tid dag.TaskID) (network.NodeID, error) {
	var proc network.NodeID
	var err error
	switch s.opts.ProcSelect {
	case ProcSelectEstimate:
		proc, _ = s.selectByEstimate(tid, true)
	case ProcSelectNoComm:
		proc, _ = s.selectByEstimate(tid, false)
	case ProcSelectEFT:
		proc, err = s.selectByEFT(tid)
	}
	if err == nil && proc < 0 {
		err = unplaceable(s.g, tid)
	}
	return proc, err
}

// unplaceable is the error for a task with no finite finish time: its
// cost or an incoming transfer overflows float64 time. dag.Builder.Build
// admits such inputs (a cost up to 1e300 on a speed just above zero),
// so it is the caller's error, never a placement.
func unplaceable(g *dag.Graph, tid dag.TaskID) error {
	return fmt.Errorf("sched: task %d (%s) has no finite finish time: its cost or an incoming transfer overflows",
		tid, g.Task(tid).Name)
}

// commitTask places tid on proc for good, refusing a placement whose
// finish time is not finite: a processor's estimate can be finite while
// the transfers actually routed to it overflow.
func (s *state) commitTask(tid dag.TaskID, proc network.NodeID) error {
	finish, err := s.placeTask(tid, proc)
	if err == nil && (math.IsInf(finish, 0) || math.IsNaN(finish)) {
		err = unplaceable(s.g, tid)
	}
	return err
}

// selectByEstimate implements the closed-form processor criteria: the
// paper's §4.1 formula when withComm is true (communication estimated
// as c(e)/MLS for predecessors on other processors), or the
// communication-blind variant the paper attributes to BA when withComm
// is false. It returns the winning processor and the task's estimated
// start on it; Classic places the task there.
func (s *state) selectByEstimate(tid dag.TaskID, withComm bool) (best network.NodeID, bestStart float64) {
	task := s.g.Task(tid)
	best = network.NodeID(-1)
	bestScore := math.Inf(1)
	for i := range s.net.NumProcessors() {
		p := s.net.Processor(i)
		ready := s.procFinish[p]
		for _, eid := range s.g.Pred(tid) {
			e := s.g.Edge(eid)
			src := s.tasks[e.From]
			arr := src.Finish
			if withComm && src.Proc != p {
				comm := e.Cost / s.mls
				if s.opts.Duplication && s.g.InDegree(e.From) == 0 {
					// The transfer can be replaced by re-running the
					// predecessor-free source locally.
					if rerun := s.g.Task(e.From).Cost / s.net.Node(p).Speed; rerun < comm {
						comm = rerun
					}
				}
				arr += comm
			}
			if arr > ready {
				ready = arr
			}
		}
		score := ready + task.Cost/s.net.Node(p).Speed
		if fptime.LessEps(score, bestScore) {
			bestScore = score
			best = p
			bestStart = ready
		}
	}
	return best, bestStart
}

// readyTime returns the time tid becomes ready: the latest finish of
// its predecessors (0 for sources). Under the paper's dynamic model
// this is also when the task's incoming communications may start.
func (s *state) readyTime(tid dag.TaskID) float64 {
	ready := 0.0
	for _, eid := range s.g.Pred(tid) {
		if f := s.tasks[s.g.Edge(eid).From].Finish; f > ready {
			ready = f
		}
	}
	return ready
}

// placeTask schedules all incoming communications of tid towards proc,
// then the task itself, and returns the task's finish time.
func (s *state) placeTask(tid dag.TaskID, proc network.NodeID) (float64, error) {
	preds := s.orderedPreds(tid)
	ready := s.readyTime(tid)
	drt := ready
	for _, eid := range preds {
		base := ready
		if s.opts.CommStart == CommAtSourceFinish {
			base = s.tasks[s.g.Edge(eid).From].Finish
		}
		if s.opts.Duplication && s.tryDuplicate(eid, proc, base) {
			if f := s.procFinish[proc]; f > drt {
				drt = f
			}
			continue
		}
		arr, err := s.scheduleEdge(eid, proc, base)
		if err != nil {
			return 0, err
		}
		if arr > drt {
			drt = arr
		}
	}
	dur := s.g.Task(tid).Cost / s.net.Node(proc).Speed
	var start, finish float64
	if s.opts.TaskPolicy == TaskInsertion {
		owner := linksched.Owner{Edge: int(tid), Leg: -1}
		start, finish = s.procTL(proc).InsertBasic(owner, linksched.Request{ES: drt, PF: drt, Dur: dur})
	} else {
		start = drt
		if f := s.procFinish[proc]; f > start {
			start = f
		}
		finish = start + dur
	}
	s.setTask(tid, TaskPlacement{Task: tid, Proc: proc, Start: start, Finish: finish})
	if finish > s.procFinish[proc] {
		s.setProcFinish(proc, finish)
	}
	return finish, nil
}

// tryDuplicate decides whether to satisfy edge eid by re-executing its
// (predecessor-free) source task on the destination processor instead
// of transferring the data. Returns true when the duplicate was placed
// (the edge then has no network schedule). The decision compares the
// duplicate's local finish against the mean-link-speed transfer
// estimate, so it stays cheap; the actual gain is whatever contention
// would have added on top.
func (s *state) tryDuplicate(eid dag.EdgeID, proc network.NodeID, base float64) bool {
	e := s.g.Edge(eid)
	src := s.tasks[e.From]
	if src.Proc == proc {
		return false // local anyway
	}
	if s.g.InDegree(e.From) != 0 {
		return false // only predecessor-free tasks are duplicated
	}
	// Reuse an existing duplicate of the same task on this processor.
	for _, d := range s.dups {
		if d.Task == e.From && d.Proc == proc {
			s.clearEdge(eid)
			return true
		}
	}
	dupStart := s.procFinish[proc]
	dupFinish := dupStart + s.g.Task(e.From).Cost/s.net.Node(proc).Speed
	estArrival := base + e.Cost/s.mls
	if fptime.GeqEps(dupFinish, estArrival) {
		return false // duplication must win by more than rounding noise
	}
	s.addDup(TaskPlacement{Task: e.From, Proc: proc, Start: dupStart, Finish: dupFinish})
	s.setProcFinish(proc, dupFinish)
	s.clearEdge(eid)
	return true
}

// orderedPreds returns the incoming edge IDs of tid in the configured
// scheduling order. The returned slice is scratch owned by the state
// and valid until the next call.
func (s *state) orderedPreds(tid dag.TaskID) []dag.EdgeID {
	in := s.g.Pred(tid)
	out := append(s.predBuf[:0], in...)
	s.predBuf = out
	switch s.opts.EdgeOrder {
	case EdgeOrderFIFO:
		// keep insertion order
	case EdgeOrderDescCost:
		slices.SortStableFunc(out, func(a, b dag.EdgeID) int {
			return cmp.Compare(s.g.Edge(b).Cost, s.g.Edge(a).Cost)
		})
	case EdgeOrderAscCost:
		slices.SortStableFunc(out, func(a, b dag.EdgeID) int {
			return cmp.Compare(s.g.Edge(a).Cost, s.g.Edge(b).Cost)
		})
	}
	return out
}

// scheduleEdge routes and places edge eid towards destination processor
// dstProc, returning the data arrival time there. base is the earliest
// time the communication may enter the network (the task's ready time
// under the paper's model, or the source finish for eager starts).
func (s *state) scheduleEdge(eid dag.EdgeID, dstProc network.NodeID, base float64) (float64, error) {
	e := s.g.Edge(eid)
	src := s.tasks[e.From]
	if src.Proc < 0 {
		return 0, fmt.Errorf("sched: edge %d scheduled before its source task %d", eid, e.From)
	}
	if src.Proc == dstProc {
		// Intra-processor communication is free; ensure no stale
		// schedule lingers from a previous tentative placement.
		s.clearEdge(eid)
		return src.Finish, nil
	}
	route, err := s.findRoute(e, src.Proc, dstProc, base)
	if err != nil {
		return 0, err
	}
	// Open the columnar record first (the route is copied into the
	// arena, one zero leg per link reserved), but leave it unscheduled
	// until every leg is placed: the engines below run slack/shift
	// callbacks that must not see the half-built record — the same
	// invisibility the edge had while the old code built its schedule on
	// a private heap object.
	s.placeEdge(eid, src.Proc, dstProc, route, base)
	switch s.opts.Engine {
	case EngineSlots:
		s.placeEdgeSlots(eid, e, route, base)
	case EngineBandwidth:
		s.placeEdgeBandwidth(eid, e, route, base)
	case EnginePackets:
		s.placeEdgePackets(eid, e, route, base)
	}
	arrival := s.sealEdge(eid, base)
	if s.opts.Engine == EngineSlots && s.opts.Insertion == InsertionOptimal {
		// Sealed: the legs now have the deferrable times optimal
		// insertion reads (the last leg's stays 0).
		for leg := 0; leg < len(route)-1; leg++ {
			s.storeSlack(eid, leg)
		}
	}
	return arrival, nil
}

// findRoute picks the route per the configured policy. The
// relaxation literal does not escape Router.Route, so it costs no
// allocation per search.
func (s *state) findRoute(e dag.Edge, src, dst network.NodeID, base float64) (network.Route, error) {
	if s.opts.Routing == RoutingBFS {
		return s.router.BFSRoute(src, dst)
	}
	init := network.Label{Start: base, Finish: base}
	return s.router.Route(src, dst, init, func(l network.Link, cur network.Label) network.Label {
		return s.relax(e.Cost, l, cur)
	})
}

// relax is the modified-Dijkstra relaxation (§4.3) for an edge of the
// given cost: the label after link l is the (start, finish) the edge
// would get on l by basic insertion, or by a greedy bandwidth estimate
// under the bandwidth engine.
func (s *state) relax(cost float64, l network.Link, cur network.Label) network.Label {
	es, pf := s.opts.legBounds(cur.Start, cur.Finish, cur.Hops)
	if s.opts.Engine == EngineBandwidth {
		start, finish := s.bw[l.ID].EstimateFinish(es, cost, l.Speed)
		if finish < cur.Finish {
			finish = cur.Finish
		}
		return network.Label{Start: start, Finish: finish}
	}
	start, finish := s.tl[l.ID].ProbeBasic(linksched.Request{ES: es, PF: pf, Dur: cost / l.Speed})
	return network.Label{Start: start, Finish: finish}
}

// placeEdgeSlots walks the route placing one exclusive slot per link,
// propagating the link causality lower bounds. Leg records are written
// through setLeg, which re-derives the arena position per write: an
// applyShift of another edge may copy-on-write its legs mid-loop and
// grow (reallocate) the shared legs arena.
func (s *state) placeEdgeSlots(eid dag.EdgeID, e dag.Edge, route network.Route, base float64) {
	prevStart, prevFinish := base, base
	for leg, lid := range route {
		req := linksched.Request{Dur: e.Cost / s.net.Link(lid).Speed}
		req.ES, req.PF = s.opts.legBounds(prevStart, prevFinish, leg)
		owner := linksched.Owner{Edge: int(eid), Leg: leg}
		var start, finish float64
		if s.opts.Insertion == InsertionOptimal {
			start, finish, s.shiftBuf = s.linkTL(lid).InsertOptimal(owner, req, s.shiftBuf)
			for _, m := range s.shiftBuf {
				s.applyShift(m)
			}
		} else {
			start, finish = s.linkTL(lid).InsertBasic(owner, req)
		}
		s.setLeg(eid, leg, legMeta{link: lid, start: start, finish: finish})
		prevStart, prevFinish = start, finish
	}
}

// slackOf is the Lemma-2 deferrable time of the slot owned by o: how
// far its start may be postponed without violating link causality
// with the owner edge's placement on its next route link; zero on its
// last link. Edges without a sealed record — including the one
// currently being placed — have no slack.
func (s *state) slackOf(o linksched.Owner) float64 {
	m := s.edges.meta[o.Edge]
	if !m.scheduled || o.Leg >= int(m.legs.n)-1 {
		return 0
	}
	cur := s.edges.legs[int(m.legs.off)+o.Leg]
	next := s.edges.legs[int(m.legs.off)+o.Leg+1]
	var dt float64
	if s.opts.Switching == StoreAndForward {
		// Next link starts only after this one finishes.
		dt = next.start - cur.finish - s.opts.HopDelay
	} else {
		dt = next.start - cur.start - s.opts.HopDelay
		if v := next.finish - cur.finish - s.opts.HopDelay; v < dt {
			dt = v
		}
	}
	if dt < 0 {
		dt = 0
	}
	return dt
}

// storeSlack writes the value slackOf gives now for edge eid's slot at
// route position leg into that link's slack column. Optimal insertion
// reads the column instead of asking slackOf slot by slot, so every
// change to a leg's deferrable time goes through here: when
// scheduleEdge seals the edge, and when applyShift moves one of its
// legs. A leg no longer than Eps holds no slot (InsertOptimal places
// none), so it has no entry to write.
func (s *state) storeSlack(eid dag.EdgeID, leg int) {
	lid := s.edges.routeAt(eid, leg)
	if s.g.Edge(eid).Cost/s.net.Link(lid).Speed <= linksched.Eps {
		return
	}
	o := linksched.Owner{Edge: int(eid), Leg: leg}
	s.linkTL(lid).SetSlack(o, s.edges.leg(eid, leg).start, s.slackOf(o))
}

// applyShift updates the placement record of a slot deferred by
// optimal insertion, and the slack entries the move changed: the
// shifted leg's own and its predecessor leg's, which is bounded by it.
func (s *state) applyShift(m linksched.Shifted) {
	eid := dag.EdgeID(m.Owner.Edge)
	if !s.edges.scheduled(eid) {
		// The in-flight edge (or a cleared one) has no record to move.
		return
	}
	l := s.edges.leg(eid, m.Owner.Leg)
	l.start, l.finish = m.Start, m.End
	s.setLeg(eid, m.Owner.Leg, l)
	if m.Owner.Leg < s.edges.legCount(eid)-1 {
		s.storeSlack(eid, m.Owner.Leg)
	}
	if m.Owner.Leg > 0 {
		s.storeSlack(eid, m.Owner.Leg-1)
	}
}

// placeEdgePackets divides the edge's volume into packets and
// schedules each packet as an exclusive slot on every route link.
// Packet p may enter link m+1 only after it fully left link m (packet
// store-and-forward) and after packet p-1 entered that link (in-order
// delivery); packets of one message therefore pipeline across the
// route. PacketOverhead extends each packet's occupation, modelled as
// a bandwidth-efficiency loss so the verifier's volume accounting
// stays exact.
func (s *state) placeEdgePackets(eid dag.EdgeID, e dag.Edge, route network.Route, base float64) {
	size := s.opts.PacketSize
	nPkts := int(math.Ceil(e.Cost / size))
	if nPkts < 1 {
		nPkts = 1
	}
	// prevFinish[p] is packet p's finish on the previous link. The
	// buffer is scratch owned by the state, reused across placements.
	if cap(s.pktBuf) < nPkts {
		s.pktBuf = make([]float64, nPkts)
	}
	prevFinish := s.pktBuf[:nPkts]
	for p := range prevFinish {
		prevFinish[p] = base
	}
	for leg, lid := range route {
		link := s.net.Link(lid)
		var legStart, legFinish float64
		lastOnLink := 0.0 // finish of packet p-1 on this link
		legChunks := s.legBufs[0][:0]
		for p := 0; p < nPkts; p++ {
			vol := size
			if p == nPkts-1 {
				vol = e.Cost - size*float64(nPkts-1)
			}
			dur := vol/link.Speed + s.opts.PacketOverhead
			lb := prevFinish[p]
			if leg > 0 {
				lb += s.opts.HopDelay
			}
			if lastOnLink > lb {
				lb = lastOnLink
			}
			owner := linksched.Owner{Edge: int(eid), Leg: leg}
			start, finish := s.linkTL(lid).InsertBasic(owner, linksched.Request{ES: lb, PF: lb, Dur: dur})
			if p == 0 {
				legStart = start
			}
			legFinish = finish
			lastOnLink = finish
			prevFinish[p] = finish
			rate := 1.0
			if dur > 0 {
				rate = vol / (link.Speed * dur) // < 1 with overhead
			}
			legChunks = append(legChunks, linksched.Chunk{
				Start: start, End: finish, Rate: rate, Volume: vol,
			})
		}
		s.legBufs[0] = legChunks
		s.setLeg(eid, leg, legMeta{
			link:   lid,
			start:  legStart,
			finish: legFinish,
			chunks: s.edges.appendChunks(legChunks),
		})
	}
}

// placeEdgeBandwidth transfers the edge's volume over the route using
// fractional bandwidth per BBSA.
func (s *state) placeEdgeBandwidth(eid dag.EdgeID, e dag.Edge, route network.Route, base float64) {
	var chunks []linksched.Chunk // the previous leg's, in legBufs[(leg-1)%2]
	prevSpeed := 0.0
	for leg, lid := range route {
		link := s.net.Link(lid)
		out := s.legBufs[leg%2][:0]
		switch {
		case leg == 0:
			out = s.linkBW(lid).AppendAlloc(out, base, e.Cost, link.Speed, 0)
		case s.opts.Switching == StoreAndForward:
			// The whole message is buffered at the station; the next
			// link transfers it afresh, unconstrained by arrival rate.
			arrived := chunks[len(chunks)-1].End
			out = s.linkBW(lid).AppendAlloc(out, arrived+s.opts.HopDelay, e.Cost, link.Speed, 0)
		default:
			out = s.linkBW(lid).Forward(out, chunks, prevSpeed, link.Speed, s.opts.HopDelay)
		}
		s.legBufs[leg%2], chunks = out, out
		start, finish := base, base
		if len(chunks) > 0 {
			start = chunks[0].Start
			finish = chunks[len(chunks)-1].End
		}
		s.setLeg(eid, leg, legMeta{
			link:   lid,
			start:  start,
			finish: finish,
			chunks: s.edges.appendChunks(chunks),
		})
		prevSpeed = link.Speed
	}
}
