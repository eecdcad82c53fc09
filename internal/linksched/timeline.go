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

// slotEntry is one slot of a Timeline's slab store together with its
// slack: the Lemma-2 deferrable time of the slot's owner, clamped at 0,
// as last written by SetSlack (0 until then). The owner of the slots'
// edges keeps it current — the timeline cannot know when a slot's
// downstream leg moves. accum is the slot's formula-(2) accumulation
// over the stored slack, which refold keeps exact after each mutation.
type slotEntry struct {
	Slot
	slack, accum float64
}

// accumStep is formula (2): the accumulated deferrable time of a slot
// ending at end with deferrable time dt, when the slot after it starts
// at nextStart with accumulation next (both +Inf past the tail).
func accumStep(dt, end, nextStart, next float64) float64 {
	gap := nextStart - end
	if gap < 0 {
		gap = 0
	}
	if next+gap < dt { // next + gap may be +Inf
		return next + gap
	}
	return dt
}

// slotSum is a slab's summary for the earliest-gap prune.
type slotSum struct {
	end float64 // max End over the slab's slots
	gap float64 // max Start_i - End_{i-1} between the slab's slots; -Inf for one slot
}

// foldSlots is the Timeline's fold: the slotSum of es.
func foldSlots(es []slotEntry) slotSum {
	sum := slotSum{end: es[0].End, gap: math.Inf(-1)}
	for i := 1; i < len(es); i++ {
		if g := es[i].Start - es[i-1].End; g > sum.gap {
			sum.gap = g
		}
		if es[i].End > sum.end {
			sum.end = es[i].End
		}
	}
	return sum
}

// growSlots is foldSlots for the slot just inserted at es[i], in O(1):
// the slot adds its end and the gaps on either side of it, and removes
// the gap it split, which only a refold can take out of the maximum.
func growSlots(sum *slotSum, es []slotEntry, i int) bool {
	// edgelint:ignore floateq — exact: the maximum is one of the gaps.
	if i > 0 && i+1 < len(es) && es[i+1].Start-es[i-1].End == sum.gap {
		return false
	}
	if es[i].End > sum.end {
		sum.end = es[i].End
	}
	for j := max(i, 1); j <= i+1 && j < len(es); j++ {
		if g := es[j].Start - es[j-1].End; g > sum.gap {
			sum.gap = g
		}
	}
	return true
}

// startBefore is the Timeline's order predicate: e starts before x.
func startBefore(e *slotEntry, x float64) bool { return e.Start < x }

// Timeline is the occupied-slot queue of one link under exclusive
// (full-bandwidth, non-preemptive) communication: at most one edge uses
// the link at a time. Slots are kept sorted by start time and never
// overlap.
//
// The slots live in a slab store (slab.go) whose per-slab summary
// (slotSum) holds the slab's maximum slot end and its maximum idle gap
// between consecutive slots. Both probes use the summaries, and
// ProbeOptimal the stored accumulations, to skip whole slabs that
// provably hold no admissible position, returning bit-identical
// results to the plain scans (reference_test.go, cross-checked by
// differential tests and fuzzing). Summaries and accumulations are
// maintained on every mutation, never inside a probe, so probes stay
// read-only: the txn journal relies on that.
//
// The zero value is an empty timeline ready for use.
type Timeline struct {
	st slabStore[slotEntry, slotSum]

	// maxAbs is an upper bound on the magnitude of every time that ever
	// entered this timeline. It scales the conservative slack used when
	// pruning slabs, keeping the pruned search exactly equivalent to the
	// reference scan under floating-point rounding. Monotone within a
	// timeline's lifetime; CopyFrom copies it with the slots and Reset
	// rewinds it.
	maxAbs float64
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Len reports the number of occupied slots.
func (t *Timeline) Len() int { return t.st.n }

// Reset empties the timeline in place, retaining the slab arrays so a
// reused scheduler state keeps them for its next request. The result
// is indistinguishable from a fresh zero-value timeline — maxAbs
// rewinds too, so the float-safe pruning slack of a reused timeline
// matches a cold run bit-for-bit.
func (t *Timeline) Reset() {
	t.st.reset()
	t.maxAbs = 0
}

// Slots returns a copy of the occupied slots in start order.
func (t *Timeline) Slots() []Slot {
	out := make([]Slot, 0, t.st.n)
	for k := range t.st.slabs {
		for _, e := range t.st.slabs[k].items {
			out = append(out, e.Slot)
		}
	}
	return out
}

// Slack returns a copy of the slots' stored slack, parallel to Slots.
func (t *Timeline) Slack() []float64 {
	out := make([]float64, 0, t.st.n)
	for k := range t.st.slabs {
		for _, e := range t.st.slabs[k].items {
			out = append(out, e.slack)
		}
	}
	return out
}

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
// A transfer of Dur at most Eps books no slot: the probes and inserts
// return that bound as its start and its finish.
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
func (t *Timeline) ProbeBasic(req Request) (start, finish float64) {
	lb := req.lowerBound()
	if req.Dur <= Eps {
		return lb, lb
	}
	start, _ = t.earliestGap(lb, req.Dur)
	return start, start + req.Dur
}

// earliestGap finds the start of the earliest idle interval of length
// dur beginning at or after lb, and the position of the slot the gap
// ends at (end() for the idle tail), using the slab summaries to skip
// slabs that cannot contain an admissible gap. Skipping is decided by two
// sufficient conditions, each provably implied by the reference test
// fptime.LeqEps(gapStart+dur, Start_i):
//
//  1. The slab's largest Start (its last slot, since slots are sorted)
//     satisfies Start+Eps < lb+dur. Any admissible gap start is >= lb
//     and float addition is monotone, so no slot of the slab can pass
//     the reference test.
//  2. The slab's largest leading gap Start_i - End_{i-1} — the summary's
//     gap, or the gap before the slab's first slot, computed here from
//     the previous slab's last End with End_{-1} = 0 — is below dur
//     minus a conservative slack covering Eps plus the worst-case
//     rounding of the handful of additions involved (bounded by the
//     magnitude of the times, tracked in maxAbs). A pass at slot i
//     requires the exact gap to reach at least that much, so none can
//     pass.
//
// Slabs that survive pruning run the reference loop verbatim, with
// prevEnd carried over from skipped slabs via their summary's end — a
// fold of float64 max, which is order-insensitive, so the running value
// equals the sequential scan's exactly and the returned start is
// bit-identical to the reference.
func (t *Timeline) earliestGap(lb, dur float64) (float64, cursor) {
	lbDur := lb + dur
	mag := t.maxAbs
	if m := math.Abs(lbDur); m > mag {
		mag = m
	}
	// Threshold for prune (2): gaps below dur-slack can never pass the
	// Eps-tolerant fit test. The 1e-13 magnitude factor overshoots the
	// true rounding bound (~1e-15 per addition) by two orders, erring
	// toward scanning a slab rather than ever skipping a feasible one.
	thr := dur - (Eps + mag*1e-13)
	prevEnd, lastEnd := 0.0, 0.0 // running max End; End of the previous slab's last slot
	for k := range t.st.slabs {
		sl := &t.st.slabs[k]
		slots := sl.items
		gap := slots[0].Start - lastEnd
		if sl.sum.gap > gap {
			gap = sl.sum.gap
		}
		lastEnd = sl.last().End
		// edgelint:ignore floateq — conservative prune; exact fit test
		// below is authoritative.
		if sl.last().Start+Eps < lbDur || gap < thr {
			if e := sl.sum.end; e > prevEnd {
				prevEnd = e
			}
			continue
		}
		for i := range slots {
			s := &slots[i]
			gapStart := prevEnd
			if gapStart < lb {
				gapStart = lb
			}
			if fptime.LeqEps(gapStart+dur, s.Start) {
				return gapStart, cursor{k, i}
			}
			if s.End > prevEnd {
				prevEnd = s.End
			}
		}
	}
	if prevEnd < lb {
		return lb, t.st.end()
	}
	return prevEnd, t.st.end()
}

// InsertBasic allocates a slot by the basic insertion policy and
// records it. It returns the slot's start and end times.
func (t *Timeline) InsertBasic(owner Owner, req Request) (start, finish float64) {
	lb := req.lowerBound()
	if req.Dur <= Eps {
		return lb, lb
	}
	start, c := t.earliestGap(lb, req.Dur)
	finish = start + req.Dur
	t.insertAt(c, Slot{Start: start, End: finish, Owner: owner})
	return start, finish
}

// insertAt inserts s at c, with slack 0 — a new slot's owner has not
// been sealed yet. The insertion kernels pass the position their walk
// ended at, which is s's place in start order: every slot they book
// lasts longer than Eps, so the slots before c start before s and the
// slot at c starts after it.
func (t *Timeline) insertAt(c cursor, s Slot) {
	t.refold(t.st.insert(c, slotEntry{Slot: s}, foldSlots, growSlots), 1)
	t.noteAbs(s)
}

// refold recomputes the stored accumulation headward from the slot at
// c: n slots whatever they held, then on until a recomputed value
// equals the stored one, as every slot before it then keeps its own.
// A mutation passes the tailmost slot it moved, added or gave a new
// slack, and the number of slots it moved or added there.
func (t *Timeline) refold(c cursor, n int) {
	next, nextStart := math.Inf(1), math.Inf(1)
	if nc := t.st.next(c); nc.s < len(t.st.slabs) {
		next, nextStart = t.st.at(nc).accum, t.st.at(nc).Start
	}
	for k, j := c.s, c.i; k >= 0; k-- {
		items := t.st.slabs[k].items
		if j < 0 {
			j = len(items) - 1
		}
		for ; j >= 0; j-- {
			e := &items[j]
			a := accumStep(e.slack, e.End, nextStart, next)
			// edgelint:ignore floateq — exact: an unchanged value leaves
			// the fold ahead of it unchanged.
			if n <= 0 && a == e.accum {
				return
			}
			e.accum, next, nextStart = a, a, e.Start
			n--
		}
	}
}

// noteAbs folds s's times into maxAbs.
func (t *Timeline) noteAbs(s Slot) {
	if m := math.Abs(s.End); m > t.maxAbs {
		t.maxAbs = m
	}
	if m := math.Abs(s.Start); m > t.maxAbs {
		t.maxAbs = m
	}
}

// SetSlack records the Lemma-2 deferrable time of the slot owned by o,
// which starts at start, as the slack read by InsertOptimal, and by
// ProbeOptimal when it is given no SlackFunc; negative values are
// stored as 0, as the walk would clamp them. The slot must exist.
func (t *Timeline) SetSlack(o Owner, start, dt float64) {
	if dt < 0 {
		dt = 0
	}
	// Every slot lasts longer than Eps, so no two share a start.
	c := t.st.search(startBefore, start)
	// edgelint:ignore floateq — exact lookup of a recorded start.
	if c.s == len(t.st.slabs) || t.st.at(c).Start != start || t.st.at(c).Owner != o {
		panic("linksched: SetSlack on a slot the timeline does not hold")
	}
	t.st.at(c).slack = dt
	t.refold(c, 0)
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
// insertion position as well (index among current slots; Len() means
// append).
//
// A nil slack reads each slot's accumulation from the stored column
// (over the slack SetSlack wrote; 0 for a slot never given one) and
// skips the slabs that cannot take the request. A SlackFunc costs an
// indirect call per slot and a fold of the queue from its tail, slab by
// slab, into the same scan. Both return exactly what the full reference
// scan returns for the same slack values (reference_test.go).
func (t *Timeline) ProbeOptimal(req Request, slack SlackFunc) (start, finish float64, pos int) {
	lb := req.lowerBound()
	if req.Dur <= Eps {
		return lb, lb, t.st.n
	}
	w := t.walkOptimal(lb, req.Dur, slack)
	return w.bestStart, w.bestStart + req.Dur, w.bestPos
}

// optimalWalk is one tail-to-head optimal-insertion scan: it tests
// insertion before slot i with formula (3) against the slot's
// accumulated deferrable time accum_i = min(dt_i, accum_{i+1} +
// gap(i, i+1)) — formula (2) — keeping the earliest feasible start.
//
// The scan stops early on a conservative bound. The deferred capacity
// phi_i = Start_i + accum_i is non-increasing toward the head:
// accum_{i-1} <= accum_i + gap(i-1, i) and the gap telescopes against
// the sorted starts. Feasibility before slot i requires sigma + Dur <=
// phi_i + Eps with sigma >= lb, so once phi drops below lb+Dur by more
// than a margin covering Eps plus the rounding accumulated over the
// steps from the tail to the slab's head, no earlier position can be
// feasible. The margin only delays the break — extra iterations run
// the unchanged test — so results stay bit-identical to the reference.
type optimalWalk struct {
	lb, dur, bestStart float64
	bestPos            int    // global index of the best insertion position
	best               cursor // the same position in the slab store
}

// walkOptimal runs the walk slab by slab from the tail, reading the
// accumulations from the stored column when slack is nil, and folding
// them from slack otherwise.
//
// Over the stored column it skips a slab whole when no position in it
// has room for the request. Insertion before the slab's slot i has
// room Start_i + accum_i - sigma <= accum_i + (Start_i - End_{i-1}),
// and by formula (2) accum_i is at most the slab's last accumulation
// plus the gaps from slot i up to the last slot, each at most the
// summary's gap. So every position's room is at most
//
//	accum_last + (slots-1) * max gap + entry gap
//
// with the gaps clamped at 0 and End_{-1} = 0 at the timeline's head
// (sigma >= lb >= 0). A pass of the feasibility test needs room >= Dur
// - Eps, up to the rounding of the few dozen operations of one slab,
// each within an ulp of the times' magnitude, so a bound below Dur
// minus Eps and marginStep per slot of a full slab rules the slab out.
// A skipped slab's head still ends the walk when its phi is below the
// stop threshold. Besides accum_last, the bound reads only the slab's
// own summary and times, which no slack changes.
func (t *Timeline) walkOptimal(lb, dur float64, slack SlackFunc) optimalWalk {
	n := t.st.n
	lbDur := lb + dur
	mag := t.maxAbs
	if m := math.Abs(lbDur); m > mag {
		mag = m
	}
	marginStep := mag * 1e-13 // magnitude bound times the rounding factor
	// Candidate: append after the last slot (always feasible).
	w := optimalWalk{lb: lb, dur: dur, bestStart: lb, bestPos: n, best: t.st.end()}
	if n > 0 && t.LastEnd() > w.bestStart {
		w.bestStart = t.LastEnd()
	}
	skipBelow := dur - (Eps + marginStep*2*slabBlock)
	next, nextStart := math.Inf(1), math.Inf(1) // the fold over slack
	base := n
	for k := len(t.st.slabs) - 1; k >= 0; k-- {
		slots := t.st.slabs[k].items
		base -= len(slots)
		prevEnd := math.Inf(-1) // end of the slot before the slab
		if k > 0 {
			prevEnd = t.st.slabs[k-1].last().End
		}
		var accs []float64
		if slack != nil {
			var buf [2 * slabBlock]float64
			accs = buf[:len(slots)]
			for j := len(slots) - 1; j >= 0; j-- {
				next = accumStep(max(slack(slots[j].Owner), 0), slots[j].End, nextStart, next)
				nextStart, accs[j] = slots[j].Start, next
			}
		}
		// The break margin of the slab's head serves the whole slab: a
		// wider margin only delays the break.
		stopBelow := lbDur - (Eps + marginStep*float64(n-base))
		if accs == nil && slots[len(slots)-1].accum+max(slots[0].Start-max(prevEnd, 0), 0)+
			float64(len(slots)-1)*max(t.st.slabs[k].sum.gap, 0) < skipBelow {
			// edgelint:ignore floateq — conservative break, as in scan.
			if slots[0].Start+slots[0].accum < stopBelow {
				break
			}
			continue
		}
		if w.scan(k, base, slots, accs, prevEnd, stopBelow) {
			break
		}
	}
	return w
}

// scan walks slab k's slots, whose first is the timeline's slot base,
// from the last to the first. accs holds their accumulations, or is
// nil to read the stored ones; prevEnd is the end of the slot before
// the slab (-Inf at the head). It reports whether the walk may stop,
// which it may once a slot's phi is below stopBelow.
func (w *optimalWalk) scan(k, base int, slots []slotEntry, accs []float64, prevEnd, stopBelow float64) bool {
	lb, dur := w.lb, w.dur
	bestStart, bestPos, bestIdx := w.bestStart, w.bestPos, -1
	stop := false
	for j := len(slots) - 1; j >= 0; j-- {
		s := &slots[j]
		phi := s.Start + s.accum
		if accs != nil {
			phi = s.Start + accs[j]
		}
		// Insertion before slot i: start at max(lb, end of slot i-1).
		sigma, pe := lb, prevEnd
		if j > 0 {
			pe = slots[j-1].End
		}
		if pe > sigma {
			sigma = pe
		}
		// Feasible, and scanning towards the head later discoveries
		// are earlier positions, so <= keeps the earliest start.
		if fptime.LeqEps(sigma+dur, phi) && fptime.LeqEps(sigma, bestStart) {
			bestStart, bestPos, bestIdx = sigma, base+j, j
		}
		// edgelint:ignore floateq — conservative break per the phi
		// monotonicity argument on optimalWalk; never changes the result.
		if phi < stopBelow {
			stop = true
			break
		}
	}
	w.bestStart, w.bestPos = bestStart, bestPos
	if bestIdx >= 0 {
		w.best = cursor{k, bestIdx}
	}
	return stop
}

// InsertOptimal allocates a slot by the optimal insertion policy,
// deferring the affected slots as needed, and records it. The
// deferrable times are the stored slack's (ProbeOptimal with a nil
// SlackFunc). It returns the new slot's interval and the slots that
// were shifted, with their new intervals, so the caller can update the
// owning edges' placements and slack: the list is appended to
// moved[:0], so a caller passing its previous result back shifts
// without allocating once the buffer has grown.
//
// The new slot enters with slack 0 and shifted slots keep theirs. Both
// go stale as soon as their owners' placements change; SetSlack is how
// the owner updates them.
func (t *Timeline) InsertOptimal(owner Owner, req Request, moved []Shifted) (start, finish float64, shifted []Shifted) {
	moved = moved[:0]
	lb := req.lowerBound()
	if req.Dur <= Eps {
		return lb, lb, moved
	}
	w := t.walkOptimal(lb, req.Dur, nil)
	start, finish = w.bestStart, w.bestStart+req.Dur
	// Defer the affected slots: every slot from the insertion position
	// onward whose start precedes the space the new slot needs is pushed
	// right just far enough; the feasibility test guarantees each shift
	// is within the slot's slack. The cascade refreshes the summary of
	// every slab it touched, and re-folds the accumulations from its
	// last slot before the new slot goes in.
	need, last := finish, w.best
	for c := w.best; c.s < len(t.st.slabs); c = (cursor{s: c.s + 1}) {
		slots := t.st.slabs[c.s].items
		i := c.i
		for ; i < len(slots) && !fptime.GeqEps(slots[i].Start, need); i++ {
			s := &slots[i].Slot
			delta := need - s.Start
			s.Start += delta
			s.End += delta
			t.noteAbs(*s)
			moved = append(moved, Shifted{Owner: s.Owner, Start: s.Start, End: s.End})
			need, last = s.End, cursor{c.s, i}
		}
		if i > c.i {
			t.st.refresh(c.s, foldSlots)
		}
		if i < len(slots) {
			break
		}
	}
	if len(moved) > 0 {
		t.refold(last, len(moved))
	}
	t.insertAt(w.best, Slot{Start: start, End: finish, Owner: owner})
	return start, finish, moved
}

// Validate checks the timeline's invariants: slots sorted, strictly
// non-overlapping (up to Eps), with non-negative times within maxAbs, a
// non-negative slack and an accumulation equal to the fold of formula
// (2) from the tail each, and the slab store's structure and summaries
// consistent with the slots. The accumulations, like the summaries,
// are recomputed and compared exactly.
func (t *Timeline) Validate() error {
	prevEnd := 0.0
	i := 0
	for k := range t.st.slabs {
		for _, e := range t.st.slabs[k].items {
			s := e.Slot
			if fptime.LessEps(s.Start, 0) || fptime.LessEps(s.End, s.Start) {
				return fmt.Errorf("linksched: slot %d has invalid interval [%v, %v]", i, s.Start, s.End)
			}
			if fptime.LessEps(s.Start, prevEnd) {
				return fmt.Errorf("linksched: slot %d [%v, %v] overlaps previous end %v", i, s.Start, s.End, prevEnd)
			}
			if s.End > prevEnd {
				prevEnd = s.End
			}
			if math.Abs(s.Start) > t.maxAbs || math.Abs(s.End) > t.maxAbs {
				return fmt.Errorf("linksched: slot %d [%v, %v] exceeds maxAbs %v", i, s.Start, s.End, t.maxAbs)
			}
			if !(e.slack >= 0) {
				return fmt.Errorf("linksched: slot %d slack %v is not a non-negative number", i, e.slack)
			}
			i++
		}
	}
	next, nextStart := math.Inf(1), math.Inf(1)
	for k := len(t.st.slabs) - 1; k >= 0; k-- {
		items := t.st.slabs[k].items
		for j := len(items) - 1; j >= 0; j-- {
			e := &items[j]
			next, nextStart = accumStep(e.slack, e.End, nextStart, next), e.Start
			// edgelint:ignore floateq — the stored fold must be the fold.
			if e.accum != next {
				return fmt.Errorf("linksched: slab %d slot %d accumulation %v != recomputed %v", k, j, e.accum, next)
			}
		}
	}
	return t.st.validate(foldSlots)
}

// CopyFrom makes t an independent deep copy of src — slots, slack
// column and slab summaries in one copy, no rebuild — reusing t's slab
// arrays when they have capacity. The probe journal copies a timeline
// into the copy a previous transaction left in its slot, and a
// rollback copies it back: the warm path is one copy per slab and no
// allocation.
func (t *Timeline) CopyFrom(src *Timeline) {
	t.st.copyFrom(&src.st)
	t.maxAbs = src.maxAbs
}

// LastEnd returns the end of the last occupied slot, or 0 for an empty
// timeline — the earliest time at which the link is free forever.
func (t *Timeline) LastEnd() float64 {
	if len(t.st.slabs) == 0 {
		return 0
	}
	return t.st.slabs[len(t.st.slabs)-1].last().End
}
