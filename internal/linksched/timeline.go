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
// as last written by SetSlack (0 until then). ProbeOptimal reads it
// sequentially instead of asking a SlackFunc per slot. The owner of the
// slots' edges keeps it current — the timeline cannot know when a
// slot's downstream leg moves.
type slotEntry struct {
	Slot
	slack float64
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

// startBefore is the Timeline's order predicate: e starts before x.
func startBefore(e *slotEntry, x float64) bool { return e.Start < x }

// Timeline is the occupied-slot queue of one link under exclusive
// (full-bandwidth, non-preemptive) communication: at most one edge uses
// the link at a time. Slots are kept sorted by start time and never
// overlap.
//
// The slots live in a slab store (slab.go) whose per-slab summary
// (slotSum) holds the slab's maximum slot end and its maximum idle gap
// between consecutive slots. ProbeBasic uses the summaries to skip
// whole slabs that provably contain no admissible idle interval, which
// makes the earliest-gap search sublinear while returning bit-identical
// results to the plain scan (the probe oracles in reference_test.go,
// cross-checked by differential tests and fuzzing). A summary covers
// only its own slab, so an insert or a deferral cascade refreshes the
// slabs it touched and nothing else.
//
// The summaries are maintained on every mutation — never rebuilt
// lazily inside a probe — so probes stay strictly read-only: the txn
// journal relies on Probe* not writing through the receiver.
//
// The zero value is an empty timeline ready for use.
type Timeline struct {
	st slabStore[slotEntry, slotSum]

	// maxAbs is an upper bound on the magnitude of every time that ever
	// entered this timeline. It scales the conservative slack used when
	// pruning slabs, keeping the pruned search exactly equivalent to the
	// reference scan under floating-point rounding. Monotone within a
	// timeline's lifetime; Restore rewinds it together with the slots.
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
//
// edgelint:noalloc
func (t *Timeline) InsertBasic(owner Owner, req Request) (start, finish float64) {
	lb := req.lowerBound()
	if req.Dur <= 0 {
		return lb, lb
	}
	start, c := t.earliestGap(lb, req.Dur)
	finish = start + req.Dur
	t.insertAt(c, Slot{Start: start, End: finish, Owner: owner})
	return start, finish
}

// insertAt inserts s, with slack 0 — a new slot's owner has not been
// sealed yet — where a search for s.Start in start order would: before
// the first slot starting at or after it. The insertion kernels pass
// the position their own walk ended at, so the seek from there costs
// the few slots between it and that place (almost always none), not a
// search.
func (t *Timeline) insertAt(c cursor, s Slot) {
	t.st.insert(t.st.seek(c, startBefore, s.Start), slotEntry{Slot: s}, foldSlots)
	t.noteAbs(s)
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
//
// edgelint:noalloc
func (t *Timeline) SetSlack(o Owner, start, dt float64) {
	if dt < 0 {
		dt = 0
	}
	c := t.st.search(startBefore, start)
	// Starts tie only between zero-length slots; the owner disambiguates.
	// edgelint:ignore floateq — exact lookup of a recorded start.
	for c.s < len(t.st.slabs) && t.st.at(c).Start == start && t.st.at(c).Owner != o {
		c = t.st.next(c)
	}
	// edgelint:ignore floateq — exact lookup of a recorded start.
	if c.s == len(t.st.slabs) || t.st.at(c).Start != start {
		panic("linksched: SetSlack on a slot the timeline does not hold")
	}
	t.st.at(c).slack = dt
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
// A nil slack reads each slot's deferrable time from the stored slack
// (SetSlack; 0 for a slot never given one) — a sequential read where a
// SlackFunc costs an indirect call per slot, which on long queues is
// most of the probe. Both return exactly what the full reference scan
// returns for the same slack values (reference_test.go).
//
// edgelint:noalloc
func (t *Timeline) ProbeOptimal(req Request, slack SlackFunc) (start, finish float64, pos int) {
	lb := req.lowerBound()
	if req.Dur <= 0 {
		return lb, lb, t.st.n
	}
	w := t.walkOptimal(lb, req.Dur, slack)
	return w.bestStart, w.bestStart + req.Dur, w.bestPos
}

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
	lb, dur, lbDur float64
	marginStep     float64 // magnitude bound times the rounding factor
	n              int     // slots on the timeline
	accum, next    float64 // accumulation at, and start of, the slot after the scanned ones
	bestStart      float64
	bestPos        int    // global index of the best insertion position
	best           cursor // the same position in the slab store
}

// walkOptimal runs the walk slab by slab from the tail, reading the
// deferrable times from slack, or from the stored slack when it is nil.
func (t *Timeline) walkOptimal(lb, dur float64, slack SlackFunc) optimalWalk {
	n := t.st.n
	lbDur := lb + dur
	mag := t.maxAbs
	if m := math.Abs(lbDur); m > mag {
		mag = m
	}
	// Candidate: append after the last slot (always feasible).
	w := optimalWalk{lb: lb, dur: dur, lbDur: lbDur, marginStep: mag * 1e-13, n: n,
		accum: math.Inf(1), next: math.Inf(1), bestStart: lb, bestPos: n, best: t.st.end()}
	if n > 0 && t.LastEnd() > w.bestStart {
		w.bestStart = t.LastEnd()
	}
	var buf [2 * slabBlock]float64
	base := n
	for k := len(t.st.slabs) - 1; k >= 0; k-- {
		slots := t.st.slabs[k].items
		base -= len(slots)
		var dts []float64
		if slack != nil {
			dts = buf[:len(slots)]
			for i := range slots {
				dt := slack(slots[i].Owner)
				if dt < 0 {
					dt = 0
				}
				dts[i] = dt
			}
		}
		prevEnd := math.Inf(-1) // end of the slot before the slab
		if k > 0 {
			prevEnd = t.st.slabs[k-1].last().End
		}
		if w.scan(k, base, slots, dts, prevEnd) {
			break
		}
	}
	return w
}

// scan walks slab k's slots, whose first is the timeline's slot base,
// from the last to the first. dts holds their deferrable times (>= 0),
// or is nil to read the stored slack; prevEnd is the end of the slot
// before the slab (-Inf at the head). It reports whether the walk may
// stop.
func (w *optimalWalk) scan(k, base int, slots []slotEntry, dts []float64, prevEnd float64) bool {
	lb, dur, lbDur, marginStep := w.lb, w.dur, w.lbDur, w.marginStep
	accum, next := w.accum, w.next
	bestStart, bestPos, bestIdx := w.bestStart, w.bestPos, -1
	stop := false
	for j := len(slots) - 1; j >= 0; j-- {
		s := &slots[j]
		start := s.Start
		gap := next - s.End // +Inf past the tail
		if gap < 0 {
			gap = 0
		}
		next = start
		a := s.slack
		if dts != nil {
			a = dts[j]
		}
		if accum+gap < a { // accum_{i+1} + gap may be +inf
			a = accum + gap
		}
		accum = a
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
		if fptime.LeqEps(sigma+dur, start+accum) && fptime.LeqEps(sigma, bestStart) {
			bestStart, bestPos, bestIdx = sigma, base+j, j
		}
		// edgelint:ignore floateq — conservative break per the phi
		// monotonicity argument on optimalWalk; never changes the result.
		if start+accum < lbDur-(Eps+marginStep*float64(w.n-base-j)) {
			stop = true
			break
		}
	}
	w.accum, w.next = accum, next
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
//
// edgelint:noalloc
func (t *Timeline) InsertOptimal(owner Owner, req Request, moved []Shifted) (start, finish float64, shifted []Shifted) {
	moved = moved[:0]
	lb := req.lowerBound()
	if req.Dur <= 0 {
		return lb, lb, moved
	}
	w := t.walkOptimal(lb, req.Dur, nil)
	start, finish = w.bestStart, w.bestStart+req.Dur
	// Defer the affected slots: every slot from the insertion position
	// onward whose start precedes the space the new slot needs is pushed
	// right just far enough; the feasibility test guarantees each shift
	// is within the slot's slack. The cascade refreshes the summary of
	// every slab it touched.
	need := finish
	for c := w.best; c.s < len(t.st.slabs); c = (cursor{s: c.s + 1}) {
		slots := t.st.slabs[c.s].items
		i := c.i
		for ; i < len(slots) && !fptime.GeqEps(slots[i].Start, need); i++ {
			s := &slots[i].Slot
			delta := need - s.Start
			s.Start += delta
			s.End += delta
			t.noteAbs(*s)
			// edgelint:coldpath — amortized growth of the caller's reused
			// shift buffer.
			moved = append(moved, Shifted{Owner: s.Owner, Start: s.Start, End: s.End})
			need = s.End
		}
		if i > c.i {
			t.st.refresh(c.s, foldSlots)
		}
		if i < len(slots) {
			break
		}
	}
	t.insertAt(w.best, Slot{Start: start, End: finish, Owner: owner})
	return start, finish, moved
}

// Validate checks the timeline's invariants: slots sorted, strictly
// non-overlapping (up to Eps), with non-negative times within maxAbs
// and a non-negative slack each, and the slab store's structure and
// summaries consistent with the slots.
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
	return t.st.validate(foldSlots)
}

// Snapshot captures the timeline state for later Restore. The snapshot
// is a value copy; subsequent timeline mutations do not affect it. The
// slab summaries and the slack travel with the slots so a Restore
// rewinds them all in one copy instead of a rebuild.
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

// CopyFrom makes t an independent deep copy of src, reusing t's slab
// arrays when they have capacity. The warm path — journaling into a
// stale snapshot, or restoring from one — is one copy per slab and no
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

// Utilization returns the fraction of [0, horizon] occupied by slots.
func (t *Timeline) Utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	busy := 0.0
	for k := range t.st.slabs {
		for _, s := range t.st.slabs[k].items {
			a, b := s.Start, s.End
			if b > horizon {
				b = horizon
			}
			if b > a {
				busy += b - a
			}
		}
	}
	return busy / horizon
}
