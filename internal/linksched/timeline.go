// Package linksched provides the per-link data structures of the edge
// scheduling model: exclusive-slot timelines (used by BA's basic
// insertion and OIHSA's optimal insertion) and fractional-bandwidth
// timelines (used by BBSA).
//
// Times are float64; a tiny epsilon absorbs rounding noise in the
// interval arithmetic.
package linksched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fptime"
)

// Eps is the tolerance used in interval comparisons. It aliases the
// shared fptime epsilon so every package compares times identically.
const Eps = fptime.Eps

// Owner identifies which communication occupies a slot: the DAG edge's
// integer ID plus the leg (index of the link within the edge's route).
type Owner struct {
	Edge int // dag.EdgeID of the communication
	Leg  int // position of this link in the edge's route
}

// Slot is an occupied time interval on an exclusive-slot timeline.
type Slot struct {
	Start float64
	End   float64
	Owner Owner
}

// Dur returns the slot length.
func (s Slot) Dur() float64 { return s.End - s.Start }

// gapBlock is the number of slots summarized by one entry of the
// timeline's block index. Probes touch O(n/gapBlock) summaries plus
// O(gapBlock) slots in the few blocks that survive pruning, so the
// sweet spot sits near sqrt(n) for the timeline sizes the scheduler
// produces; a fixed power of two keeps the index maintenance branch-
// free and the summaries cache-resident.
const gapBlock = 32

// Timeline is the occupied-slot queue of one link under exclusive
// (full-bandwidth, non-preemptive) communication: at most one edge uses
// the link at a time. Slots are kept sorted by start time and never
// overlap.
//
// Alongside the sorted slots the timeline maintains a block-summary
// gap index: for each run of gapBlock consecutive slots, the maximum
// slot end within the block (blkEnd) and the maximum leading idle gap
// before any slot of the block (blkGap, measuring Start_i - End_{i-1}
// with End_{-1} = 0). ProbeBasic uses the summaries to skip whole
// blocks that provably contain no admissible idle interval, which
// makes the earliest-gap search sublinear while returning bit-
// identical results to the plain scan (kept in reference.go, with the
// probe oracles built on it in reference_test.go, and cross-checked by
// differential tests and fuzzing).
//
// The index is maintained incrementally on every mutation — never
// rebuilt lazily inside a probe — so probes stay strictly read-only:
// the txn journal and the rollback oracle both rely on Probe* not
// writing through the receiver.
//
// The zero value is an empty timeline ready for use.
type Timeline struct {
	slots []Slot

	// Block summaries, len == ceil(len(slots)/gapBlock), or empty while
	// the timeline fits in a single block (probes take the linear path
	// there, see reindexFrom). Journaled together with the slots
	// (Snapshot/Restore) so a rollback never leaves a stale index
	// behind.
	blkEnd []float64 // max End over the block's slots
	blkGap []float64 // max leading gap Start_i - End_{i-1} over the block

	// maxAbs is an upper bound on the magnitude of every time that ever
	// entered this timeline. It scales the conservative slack used when
	// pruning blocks, keeping the pruned search exactly equivalent to
	// the reference scan under floating-point rounding. Monotone within
	// a timeline's lifetime; Restore rewinds it together with the slots.
	maxAbs float64

	// slack is the optimal-insertion slack column: slack[i] is slot i's
	// Lemma-2 deferrable time, clamped at 0, as last written by
	// SetSlack (0 until then). ProbeOptimal reads it sequentially
	// instead of asking a SlackFunc per slot. It is empty on timelines
	// that never saw InsertOptimal, so basic insertion carries no
	// column; once present it holds exactly one entry per slot and
	// moves with the slots on every insert. The owner of the slots'
	// edges keeps it current — the timeline cannot know when a slot's
	// downstream leg moves.
	slack []float64
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Len reports the number of occupied slots.
func (t *Timeline) Len() int { return len(t.slots) }

// Reset empties the timeline in place, retaining the slot and index
// backing arrays so a reused scheduler state keeps them for its next
// request. The result is indistinguishable from a fresh zero-value
// timeline — maxAbs rewinds too, so the float-safe pruning slack of a
// reused timeline matches a cold run bit-for-bit.
func (t *Timeline) Reset() {
	t.slots = t.slots[:0]
	t.blkEnd = t.blkEnd[:0]
	t.blkGap = t.blkGap[:0]
	t.maxAbs = 0
	t.slack = t.slack[:0]
}

// Slots returns the occupied slots in start order. The slice is shared;
// do not modify.
func (t *Timeline) Slots() []Slot { return t.slots }

// Slack returns the slack column, parallel to Slots, or an empty slice
// when the timeline keeps none. The slice is shared; do not modify.
func (t *Timeline) Slack() []float64 { return t.slack }

// Request describes the placement constraints of one edge on one link,
// derived from the link causality condition of cut-through routing:
//
//   - ES is the edge's start time on the previous route link (or the
//     source task's finish time on the first link); the slot must start
//     at or after ES.
//   - PF is the edge's finish time on the previous route link (or the
//     source task's finish time on the first link); the slot must end
//     at or after PF.
//   - Dur is the transfer time on this link, c(e)/s(L).
//
// The effective lower bound for the slot start is
// max(ES, PF-Dur): starting there makes both conditions hold with a
// slot of exactly Dur length (the paper's "virtual start time", §2.2).
type Request struct {
	ES  float64
	PF  float64
	Dur float64
}

// lowerBound returns the earliest admissible slot start.
func (r Request) lowerBound() float64 {
	lb := r.ES
	if v := r.PF - r.Dur; v > lb {
		lb = v
	}
	if lb < 0 {
		lb = 0
	}
	return lb
}

// ProbeBasic computes, without mutating the timeline, the slot the
// basic insertion policy (Sinnen's BA, §3) would allocate: the earliest
// idle interval at or after the request's lower bound that fits Dur.
// It returns the slot's start and end times.
//
// edgelint:noalloc
func (t *Timeline) ProbeBasic(req Request) (start, finish float64) {
	lb := req.lowerBound()
	if req.Dur <= 0 {
		return lb, lb
	}
	start = t.earliestGap(lb, req.Dur)
	return start, start + req.Dur
}

// earliestGap finds the start of the earliest idle interval of length
// dur beginning at or after lb, using the block index to skip runs of
// slots that cannot contain an admissible gap. Skipping is decided by
// two sufficient conditions, each provably implied by the reference
// test fptime.LeqEps(gapStart+dur, Start_i):
//
//  1. The block's largest Start (its last slot, since slots are
//     sorted) satisfies Start+Eps < lb+dur. Any admissible gap start
//     is >= lb and float addition is monotone, so no slot of the
//     block can pass the reference test.
//  2. The block's largest leading gap is below dur minus a
//     conservative slack covering Eps plus the worst-case rounding of
//     the handful of additions involved (bounded by the magnitude of
//     the times, tracked in maxAbs). A pass at slot i requires the
//     exact gap Start_i - End_{i-1} to reach at least that much, so
//     none can pass.
//
// Blocks that survive pruning run the reference loop verbatim, with
// prevEnd carried over from skipped blocks via their blkEnd summary —
// a fold of float64 max, which is order-insensitive, so the running
// value equals the sequential scan's exactly and the returned start is
// bit-identical to earliestGapLinear.
func (t *Timeline) earliestGap(lb, dur float64) float64 {
	n := len(t.slots)
	if n <= gapBlock {
		return earliestGapLinear(t.slots, lb, dur)
	}
	lbDur := lb + dur
	mag := t.maxAbs
	if m := math.Abs(lbDur); m > mag {
		mag = m
	}
	// Threshold for prune (2): gaps below dur-slack can never pass the
	// Eps-tolerant fit test. The 1e-13 magnitude factor overshoots the
	// true rounding bound (~1e-15 per addition) by two orders, erring
	// toward scanning a block rather than ever skipping a feasible one.
	thr := dur - (Eps + mag*1e-13)
	prevEnd := 0.0
	for b := range t.blkEnd {
		hi := (b + 1) * gapBlock
		if hi > n {
			hi = n
		}
		// edgelint:ignore floateq — conservative prune; exact fit test
		// below is authoritative.
		if t.slots[hi-1].Start+Eps < lbDur || t.blkGap[b] < thr {
			if e := t.blkEnd[b]; e > prevEnd {
				prevEnd = e
			}
			continue
		}
		for i := b * gapBlock; i < hi; i++ {
			s := t.slots[i]
			gapStart := prevEnd
			if gapStart < lb {
				gapStart = lb
			}
			if fptime.LeqEps(gapStart+dur, s.Start) {
				return gapStart
			}
			if s.End > prevEnd {
				prevEnd = s.End
			}
		}
	}
	if prevEnd < lb {
		return lb
	}
	return prevEnd
}

// InsertBasic allocates a slot by the basic insertion policy and
// records it. It returns the slot's start and end times.
//
// edgelint:noalloc
func (t *Timeline) InsertBasic(owner Owner, req Request) (start, finish float64) {
	start, finish = t.ProbeBasic(req)
	if req.Dur <= 0 {
		return start, finish
	}
	t.insertSorted(Slot{Start: start, End: finish, Owner: owner}, false)
	return start, finish
}

// insertSorted inserts s in start order. The slack column, when present
// or requested by optimal insertion (withSlack), gains a 0 entry at the
// same position: a new slot's owner has not been sealed yet.
func (t *Timeline) insertSorted(s Slot, withSlack bool) {
	// edgelint:ignore floateq — exact ordering comparison for sorted insert.
	i := sort.Search(len(t.slots), func(i int) bool { return t.slots[i].Start >= s.Start })
	// edgelint:coldpath — amortized slot-array growth; capacity
	// persists across snapshots and transactions.
	t.slots = append(t.slots, Slot{})
	copy(t.slots[i+1:], t.slots[i:])
	t.slots[i] = s
	if withSlack || len(t.slack) > 0 {
		for len(t.slack) < len(t.slots) {
			// edgelint:coldpath — amortized column growth (one entry per
			// slot; more only when basic-inserted slots predate it).
			t.slack = append(t.slack, 0)
		}
		copy(t.slack[i+1:], t.slack[i:])
		t.slack[i] = 0
	}
	t.reindexFrom(i)
}

// reindexFrom recomputes the block summaries for every block holding a
// slot at position pos or later — the suffix a sorted insert or an
// optimal-insertion shift can have touched — and folds the affected
// times into maxAbs. O(len(slots) - pos + gapBlock).
//
// Timelines of at most one block keep no summaries at all: earliestGap
// takes the linear path below gapBlock slots anyway, so maintaining an
// index there is pure insert overhead (BA-style insert-heavy runs with
// short per-link queues pay it without ever probing through it). Only
// maxAbs is folded — ProbeOptimal scales its early-exit margin by it
// at every size. The index is built in full the first time a timeline
// outgrows one block.
func (t *Timeline) reindexFrom(pos int) {
	n := len(t.slots)
	if n <= gapBlock {
		t.blkEnd = t.blkEnd[:0]
		t.blkGap = t.blkGap[:0]
		mab := t.maxAbs
		for i := pos; i < n; i++ {
			if m := math.Abs(t.slots[i].End); m > mab {
				mab = m
			}
			if m := math.Abs(t.slots[i].Start); m > mab {
				mab = m
			}
		}
		t.maxAbs = mab
		return
	}
	nb := (n + gapBlock - 1) / gapBlock
	if len(t.blkEnd) == 0 {
		pos = 0 // first time past one block: build the index in full
	}
	for len(t.blkEnd) < nb {
		// edgelint:coldpath — amortized index growth (one float per
		// gapBlock slots).
		t.blkEnd = append(t.blkEnd, 0)
		// edgelint:coldpath — amortized index growth, as above.
		t.blkGap = append(t.blkGap, 0)
	}
	t.blkEnd = t.blkEnd[:nb]
	t.blkGap = t.blkGap[:nb]
	mab := t.maxAbs
	for b := pos / gapBlock; b < nb; b++ {
		lo := b * gapBlock
		hi := lo + gapBlock
		if hi > n {
			hi = n
		}
		prev := 0.0
		if lo > 0 {
			prev = t.slots[lo-1].End
		}
		maxEnd := math.Inf(-1)
		maxGap := math.Inf(-1)
		for i := lo; i < hi; i++ {
			s := t.slots[i]
			if g := s.Start - prev; g > maxGap {
				maxGap = g
			}
			if s.End > maxEnd {
				maxEnd = s.End
			}
			prev = s.End
			if m := math.Abs(s.End); m > mab {
				mab = m
			}
			if m := math.Abs(s.Start); m > mab {
				mab = m
			}
		}
		t.blkEnd[b] = maxEnd
		t.blkGap[b] = maxGap
	}
	t.maxAbs = mab
}

// SetSlack records the Lemma-2 deferrable time of the slot owned by o,
// which starts at start, in the slack column read by InsertOptimal, and
// by ProbeOptimal when it is given no SlackFunc; negative values are
// stored as 0, as the walk would clamp them. The slot must exist. A
// timeline without a column grows one (zeros for every other slot).
//
// edgelint:noalloc
func (t *Timeline) SetSlack(o Owner, start, dt float64) {
	if dt < 0 {
		dt = 0
	}
	n := len(t.slots)
	// edgelint:ignore floateq — exact lookup of a recorded start.
	lo := sort.Search(n, func(i int) bool { return t.slots[i].Start >= start })
	// Starts tie only between zero-length slots; the owner disambiguates.
	// edgelint:ignore floateq — exact lookup of a recorded start.
	for lo < n && t.slots[lo].Start == start && t.slots[lo].Owner != o {
		lo++
	}
	// edgelint:ignore floateq — exact lookup of a recorded start.
	if lo == n || t.slots[lo].Start != start {
		panic("linksched: SetSlack on a slot the timeline does not hold")
	}
	for len(t.slack) < n {
		// edgelint:coldpath — one-time column creation on a timeline
		// that was built by basic insertion.
		t.slack = append(t.slack, 0)
	}
	t.slack[lo] = dt
}

// SlackFunc reports the longest deferrable time (Lemma 2) of the slot
// owned by the given owner on this link: how far its start may be
// postponed without violating the link causality condition with the
// owner's next route link. It must return 0 for the last link of the
// owner's route.
type SlackFunc func(o Owner) float64

// Shifted records a slot moved by optimal insertion so the caller can
// update the owning edge's bookkeeping.
type Shifted struct {
	Owner Owner
	Start float64
	End   float64
}

// ProbeOptimal computes, without mutating the timeline, the slot the
// optimal insertion policy (OIHSA §4.4) would allocate. Existing slots
// may be deferred within their accumulated slack (formula 2), so the
// returned start can be earlier than ProbeBasic's. It returns the
// insertion position as well (index among current slots; len(slots)
// means append).
//
// A nil slack reads each slot's deferrable time from the stored slack
// column (SetSlack; 0 on a timeline that keeps none) — a sequential
// read where a SlackFunc costs an indirect call per slot, which on long
// queues is most of the probe. Both return exactly what the full
// reference scan returns for the same slack values (reference_test.go).
//
// edgelint:noalloc
func (t *Timeline) ProbeOptimal(req Request, slack SlackFunc) (start, finish float64, pos int) {
	lb := req.lowerBound()
	if req.Dur <= 0 {
		return lb, lb, len(t.slots)
	}
	w := t.newOptimalWalk(lb, req.Dur)
	switch {
	case slack != nil:
		w.callback(slack)
	case len(t.slack) == len(t.slots):
		w.scan(0, len(t.slots), t.slack, math.Inf(1))
	default:
		w.callback(zeroSlack)
	}
	return w.bestStart, w.bestStart + req.Dur, w.bestPos
}

// zeroSlack is the deferrable time of every slot of a timeline without a
// slack column.
func zeroSlack(Owner) float64 { return 0 }

// optimalWalk is one tail-to-head optimal-insertion scan: it folds the
// accumulated deferrable time accum_i = min(dt_i, accum_{i+1} +
// gap(i, i+1)) — formula (2) — and tests insertion before slot i with
// formula (3), keeping the earliest feasible start.
//
// The scan stops early on a conservative bound. The deferred capacity
// phi_i = Start_i + accum_i is non-increasing toward the head:
// accum_{i-1} <= accum_i + gap(i-1, i) and the gap telescopes against
// the sorted starts. Feasibility before slot i requires sigma + Dur <=
// phi_i + Eps with sigma >= lb, so once phi drops below lb+Dur by more
// than a margin covering Eps plus the rounding accumulated over the
// walked steps, no earlier position can be feasible. The margin only
// delays the break — extra iterations run the unchanged feasibility
// test — so results stay bit-identical to the full reference scan.
type optimalWalk struct {
	t         *Timeline
	lb, dur   float64
	lbDur     float64
	mag       float64 // magnitude bound scaling the rounding margins
	bestStart float64
	bestPos   int
}

func (t *Timeline) newOptimalWalk(lb, dur float64) optimalWalk {
	n := len(t.slots)
	// Candidate: append after the last slot (always feasible).
	w := optimalWalk{t: t, lb: lb, dur: dur, lbDur: lb + dur, mag: t.maxAbs, bestStart: lb, bestPos: n}
	if n > 0 && t.slots[n-1].End > w.bestStart {
		w.bestStart = t.slots[n-1].End
	}
	if m := math.Abs(w.lbDur); m > w.mag {
		w.mag = m
	}
	return w
}

// scan walks slots [lo, hi) from hi-1 down to lo, where dts[i-lo] is
// slot i's deferrable time (>= 0) and accum the accumulation at slot hi
// (+Inf past the tail). It returns the accumulation at slot lo and
// whether the scan may stop.
func (w *optimalWalk) scan(lo, hi int, dts []float64, accum float64) (float64, bool) {
	slots := w.t.slots
	n := len(slots)
	lb, dur, lbDur, marginStep := w.lb, w.dur, w.lbDur, w.mag*1e-13
	bestStart, bestPos := w.bestStart, w.bestPos
	next := math.Inf(1) // start of slot i+1; the gap past the tail is +Inf
	if hi < n {
		next = slots[hi].Start
	}
	blk, dts := slots[lo:hi], dts[:hi-lo]
	stop := false
	for k := len(blk) - 1; k >= 0; k-- {
		i := lo + k
		start := blk[k].Start
		gap := next - blk[k].End
		if gap < 0 {
			gap = 0
		}
		next = start
		a := dts[k]
		if accum+gap < a { // accum_{i+1} + gap may be +inf
			a = accum + gap
		}
		accum = a
		// Insertion before slot i: start at max(lb, end of slot i-1).
		sigma := lb
		if i > 0 && slots[i-1].End > sigma {
			sigma = slots[i-1].End
		}
		// Feasible, and scanning towards the head later discoveries
		// are earlier positions, so <= keeps the earliest start.
		if fptime.LeqEps(sigma+dur, start+accum) && fptime.LeqEps(sigma, bestStart) {
			bestStart, bestPos = sigma, i
		}
		// edgelint:ignore floateq — conservative break per the phi
		// monotonicity argument on optimalWalk; never changes the result.
		if start+accum < lbDur-(Eps+marginStep*float64(n-i)) {
			stop = true
			break
		}
	}
	w.bestStart, w.bestPos = bestStart, bestPos
	return accum, stop
}

// callback scans with the deferrable times reported by slack, asked for
// gapBlock slots at a time so the scan loop stays the stored column's.
func (w *optimalWalk) callback(slack SlackFunc) {
	slots := w.t.slots
	var dts [gapBlock]float64
	accum := math.Inf(1)
	for hi := len(slots); hi > 0; {
		lo := max(hi-gapBlock, 0)
		for i := lo; i < hi; i++ {
			dt := slack(slots[i].Owner)
			if dt < 0 {
				dt = 0
			}
			dts[i-lo] = dt
		}
		var done bool
		if accum, done = w.scan(lo, hi, dts[:hi-lo], accum); done {
			return
		}
		hi = lo
	}
}

// InsertOptimal allocates a slot by the optimal insertion policy,
// deferring the affected slots as needed, and records it. The
// deferrable times are the stored slack column's (ProbeOptimal with a
// nil SlackFunc). It returns the new slot's interval and the slots that
// were shifted, with their new intervals, so the caller can update the
// owning edges' placements and slack: the list is appended to
// moved[:0], so a caller passing its previous result back shifts
// without allocating once the buffer has grown.
//
// The new slot enters the slack column (created on first use) at 0 and
// shifted slots keep their entries. Both go stale as soon as their
// owners' placements change; SetSlack is how the owner updates them.
//
// edgelint:noalloc
func (t *Timeline) InsertOptimal(owner Owner, req Request, moved []Shifted) (start, finish float64, shifted []Shifted) {
	start, finish, pos := t.ProbeOptimal(req, nil)
	moved = moved[:0]
	if req.Dur <= 0 {
		return start, finish, moved
	}
	// Defer the affected slots: every slot from pos onward whose start
	// precedes the space the new slot needs is pushed right just far
	// enough; the feasibility test guarantees each shift is within the
	// slot's slack.
	need := finish
	for i := pos; i < len(t.slots); i++ {
		if fptime.GeqEps(t.slots[i].Start, need) {
			break
		}
		delta := need - t.slots[i].Start
		t.slots[i].Start += delta
		t.slots[i].End += delta
		// edgelint:coldpath — amortized growth of the caller's reused
		// shift buffer.
		moved = append(moved, Shifted{Owner: t.slots[i].Owner, Start: t.slots[i].Start, End: t.slots[i].End})
		need = t.slots[i].End
	}
	t.insertSorted(Slot{Start: start, End: finish, Owner: owner}, true)
	return start, finish, moved
}

// Validate checks the timeline's invariants: slots sorted, strictly
// non-overlapping (up to Eps), with non-negative times, the slack
// column absent or one non-negative entry per slot, and the block index
// consistent with the slots it summarizes.
func (t *Timeline) Validate() error {
	prevEnd := 0.0
	for i, s := range t.slots {
		if fptime.LessEps(s.Start, 0) || fptime.LessEps(s.End, s.Start) {
			return fmt.Errorf("linksched: slot %d has invalid interval [%v, %v]", i, s.Start, s.End)
		}
		if fptime.LessEps(s.Start, prevEnd) {
			return fmt.Errorf("linksched: slot %d [%v, %v] overlaps previous end %v", i, s.Start, s.End, prevEnd)
		}
		if s.End > prevEnd {
			prevEnd = s.End
		}
	}
	if err := t.validateSlack(); err != nil {
		return err
	}
	return t.validateIndex()
}

// validateIndex recomputes the block summaries and compares them with
// the maintained ones. Comparisons are exact: the summaries are folds
// of the same float64 values the recomputation reads, so any mismatch
// is a maintenance bug, not rounding.
func (t *Timeline) validateIndex() error {
	n := len(t.slots)
	nb := 0
	if n > gapBlock {
		nb = (n + gapBlock - 1) / gapBlock
	}
	if len(t.blkEnd) != nb || len(t.blkGap) != nb {
		return fmt.Errorf("linksched: index has %d/%d blocks, want %d", len(t.blkEnd), len(t.blkGap), nb)
	}
	if nb == 0 {
		for i, s := range t.slots {
			if math.Abs(s.Start) > t.maxAbs || math.Abs(s.End) > t.maxAbs {
				return fmt.Errorf("linksched: slot %d [%v, %v] exceeds maxAbs %v", i, s.Start, s.End, t.maxAbs)
			}
		}
		return nil
	}
	for b := 0; b < nb; b++ {
		lo := b * gapBlock
		hi := lo + gapBlock
		if hi > n {
			hi = n
		}
		prev := 0.0
		if lo > 0 {
			prev = t.slots[lo-1].End
		}
		maxEnd := math.Inf(-1)
		maxGap := math.Inf(-1)
		for i := lo; i < hi; i++ {
			s := t.slots[i]
			if g := s.Start - prev; g > maxGap {
				maxGap = g
			}
			if s.End > maxEnd {
				maxEnd = s.End
			}
			prev = s.End
			if m := math.Abs(s.Start); m > t.maxAbs {
				return fmt.Errorf("linksched: slot %d start %v exceeds maxAbs %v", i, s.Start, t.maxAbs)
			}
			if m := math.Abs(s.End); m > t.maxAbs {
				return fmt.Errorf("linksched: slot %d end %v exceeds maxAbs %v", i, s.End, t.maxAbs)
			}
		}
		// edgelint:ignore floateq — exact equality: same floats, same fold.
		if t.blkEnd[b] != maxEnd || t.blkGap[b] != maxGap {
			return fmt.Errorf("linksched: block %d summary (end %v, gap %v) != recomputed (%v, %v)",
				b, t.blkEnd[b], t.blkGap[b], maxEnd, maxGap)
		}
	}
	return nil
}

// validateSlack checks the slack column: absent, or one non-negative
// entry per slot.
func (t *Timeline) validateSlack() error {
	if len(t.slack) != 0 && len(t.slack) != len(t.slots) {
		return fmt.Errorf("linksched: slack column has %d entries for %d slots", len(t.slack), len(t.slots))
	}
	for i, v := range t.slack {
		if !(v >= 0) {
			return fmt.Errorf("linksched: slot %d slack %v is not a non-negative number", i, v)
		}
	}
	return nil
}

// Snapshot captures the timeline state for later Restore. The snapshot
// is a value copy; subsequent timeline mutations do not affect it. The
// block index and the slack column travel with the slots so a Restore
// rewinds them all in one copy instead of an O(n) rebuild.
type Snapshot struct {
	tl Timeline
}

// Snapshot returns a restorable copy of the current state.
func (t *Timeline) Snapshot() Snapshot {
	return t.SnapshotInto(Snapshot{})
}

// SnapshotInto captures the current state reusing the buffers of a
// stale snapshot (one that will never be restored again). The probe
// transaction journal calls it with the snapshot left over from the
// previous transaction, making steady-state journaling allocation-free.
//
// edgelint:noalloc
func (t *Timeline) SnapshotInto(old Snapshot) Snapshot {
	old.tl.CopyFrom(t)
	return old
}

// Restore resets the timeline to a previously captured snapshot.
//
// edgelint:noalloc
func (t *Timeline) Restore(s Snapshot) { t.CopyFrom(&s.tl) }

// CopyFrom makes t an independent deep copy of src, reusing t's
// backing buffers when they have capacity. The warm path — journaling
// into a stale snapshot, or restoring from one — is a handful of copy
// calls and no allocation.
func (t *Timeline) CopyFrom(src *Timeline) {
	t.slots = append(t.slots[:0], src.slots...)
	t.blkEnd = append(t.blkEnd[:0], src.blkEnd...)
	t.blkGap = append(t.blkGap[:0], src.blkGap...)
	t.maxAbs = src.maxAbs
	t.slack = append(t.slack[:0], src.slack...)
}

// LastEnd returns the end of the last occupied slot, or 0 for an empty
// timeline — the earliest time at which the link is free forever.
func (t *Timeline) LastEnd() float64 {
	if len(t.slots) == 0 {
		return 0
	}
	return t.slots[len(t.slots)-1].End
}

// Utilization returns the fraction of [0, horizon] occupied by slots.
func (t *Timeline) Utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	busy := 0.0
	for _, s := range t.slots {
		a, b := s.Start, s.End
		if b > horizon {
			b = horizon
		}
		if b > a {
			busy += b - a
		}
	}
	return busy / horizon
}
