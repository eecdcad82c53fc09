package linksched

import (
	"fmt"
	"math"

	"repro/internal/fptime"
)

// Chunk is one contiguous piece of a communication transferred on a
// link at a constant fraction of the link's bandwidth. BBSA spreads an
// edge's volume over chunks with varying rates (§5).
type Chunk struct {
	Start  float64
	End    float64
	Rate   float64 // fraction of the link's bandwidth in (0, 1]
	Volume float64 // data moved: Rate * linkSpeed * (End-Start)
}

// use records one owner's bandwidth share within a segment.
type use struct {
	owner Owner
	rate  float64
}

// seg is a maximal interval of a bandwidth timeline with a constant set
// of bandwidth shares. Segments are sorted, non-overlapping; time not
// covered by any segment is fully idle.
type seg struct {
	start, end float64
	avail      float64 // remaining bandwidth fraction in [0, 1]
	uses       []use
}

// hoppable is the BWTimeline's fold: the hop flag of segs. The flag
// says that skipSaturated's per-segment walk, once it has entered the
// slab at its first segment, would consume every segment in turn. Each is saturated (avail <=
// Eps), each after the first starts no later than its predecessor's
// end plus Eps (no idle gap to stop in), and each ends beyond its
// predecessor's end plus Eps (the cursor's advance lands on it rather
// than past it). Each test is written as the walk evaluates it, with
// cur the previous segment's end — the gap stop "start > cur+Eps" and
// the cursor advance "end > cur+Eps" — so the flag is exact at every
// time magnitude.
func hoppable(segs []seg) bool {
	for i := range segs {
		if segs[i].avail > Eps {
			return false
		}
		if i == 0 {
			continue
		}
		// edgelint:ignore floateq — the walk's exact stop and advance
		// predicates; the flag must agree with them bit for bit.
		if y := segs[i-1].end + Eps; segs[i].start > y || !(segs[i].end > y) {
			return false
		}
	}
	return true
}

// cloneSegs deep-copies one slab's segments into a reused array,
// reusing the per-segment use buffers it already holds. The slab store
// never lets two entries share a use buffer, so the element-wise copy
// cannot alias.
func cloneSegs(dst, src []seg) []seg {
	n := len(src)
	if cap(dst) < n {
		// edgelint:coldpath — one-time snapshot-buffer growth; the
		// capacity persists across transactions via the stale snapshot.
		dst = append(dst[:cap(dst)], make([]seg, n-cap(dst))...)
	}
	dst = dst[:n]
	for i := range src {
		s := &src[i]
		dst[i].start, dst[i].end, dst[i].avail = s.start, s.end, s.avail
		dst[i].uses = append(dst[i].uses[:0], s.uses...)
	}
	return dst
}

// endAtMost is the BWTimeline's order predicate: e ends at or before y.
func endAtMost(e *seg, y float64) bool {
	// edgelint:ignore floateq — exact order predicate of the two-level
	// search; the cursor kernels replicate it bit for bit.
	return e.end <= y
}

// BWTimeline is the per-link bandwidth ledger used by BBSA: multiple
// communications may share a link concurrently as long as their
// bandwidth fractions sum to at most 1.
//
// Segments live in a slab store (slab.go), so reserve's splits and
// gap-fills cost O(slabBlock), and each slab's summary is its hop flag
// (hoppable), which lets Alloc/EstimateFinish skip saturated stretches
// slab by slab. Both kernels remain bit-identical to the retained
// linear reference (bwRef in reference_test.go): a hop takes exactly
// the steps the linear walk would, enforced by the differential sweeps
// and FuzzBWTimelineDifferential.
//
// The zero value is an idle timeline ready for use.
type BWTimeline struct {
	st slabStore[seg, bool]
}

// NewBWTimeline returns an idle bandwidth timeline.
func NewBWTimeline() *BWTimeline { return &BWTimeline{} }

// Reset empties the ledger in place, retaining the slab arrays so a
// reused scheduler state keeps them for its next request. The result
// is indistinguishable from a fresh zero-value ledger.
func (t *BWTimeline) Reset() { t.st.reset() }

// SegmentInfo exposes one segment for verification and display.
type SegmentInfo struct {
	Start, End float64
	Avail      float64
	Uses       []SegmentUse
}

// SegmentUse is one owner's share within a segment.
type SegmentUse struct {
	Owner Owner
	Rate  float64
}

// Segments returns a copy of the current segments in time order.
func (t *BWTimeline) Segments() []SegmentInfo {
	out := make([]SegmentInfo, 0, t.st.n)
	for k := range t.st.slabs {
		for _, s := range t.st.slabs[k].items {
			info := SegmentInfo{Start: s.start, End: s.end, Avail: s.avail}
			for _, u := range s.uses {
				info.Uses = append(info.Uses, SegmentUse{Owner: u.owner, Rate: u.rate})
			}
			out = append(out, info)
		}
	}
	return out
}

// seekEps is THE availability-cursor predicate: the first segment whose
// end lies beyond x+Eps. Segment ends increase strictly across the
// whole store (Validate enforces this exactly), so the store's
// two-level search lands where a flat binary search would. The cursor
// convention lives here and in advanceEps only.
func (t *BWTimeline) seekEps(x float64) cursor { return t.st.search(endAtMost, x+Eps) }

// advanceEps advances the cursor past every segment ending at or before
// x+Eps — seekEps's predicate applied linearly from a known position,
// as the kernels' monotone cursors require (amortized O(1) per call).
// Slabs that fail the predicate wholesale (last end <= x+Eps) are
// hopped in one exact step.
func (t *BWTimeline) advanceEps(c cursor, x float64) cursor {
	y := x + Eps
	for c.s < len(t.st.slabs) {
		segs := t.st.slabs[c.s].items
		// edgelint:ignore floateq — exact replica of seekEps's predicate
		// (the first end > x+Eps); must match it bit for bit.
		if c.i == 0 && !(segs[len(segs)-1].end > y) {
			c.s++
			continue
		}
		// edgelint:ignore floateq — exact replica of seekEps's predicate.
		if segs[c.i].end > y {
			return c
		}
		if c.i++; c.i == len(segs) {
			c = cursor{s: c.s + 1}
		}
	}
	return c
}

// skipSaturated advances cur (and the cursor) through the maximal run
// of saturated coverage starting at cur, exactly as the per-segment
// loop "cur = until; advance" of the linear kernels would: each step
// requires the next segment to lead cur with no gap (start <= cur+Eps)
// and to be saturated (avail <= Eps), and moves cur to its end. A slab
// entered at its first segment is consumed in one step when that
// segment passes the gap test and the slab's hop flag holds — the flag
// certifies every later per-segment test inside.
func (t *BWTimeline) skipSaturated(c cursor, cur float64) (cursor, float64) {
	c = t.advanceEps(c, cur)
	for c.s < len(t.st.slabs) {
		sl := &t.st.slabs[c.s]
		// edgelint:ignore floateq — the exact entering-gap test of the
		// walk; the flag covers the rest of the slab.
		if c.i == 0 && sl.sum && !(sl.items[0].start > cur+Eps) {
			cur = sl.last().end
			c = t.advanceEps(cursor{s: c.s + 1}, cur)
			continue
		}
		s := &sl.items[c.i]
		// edgelint:ignore floateq — exact replicas of the linear
		// kernels' gap (start > cur+Eps) and saturation (avail > Eps)
		// stop tests.
		if s.start > cur+Eps || s.avail > Eps {
			break
		}
		cur = s.end
		c = t.advanceEps(c, cur)
	}
	return c, cur
}

// split ensures a segment boundary exists at time x. Only called for x
// within or at the edge of existing segments; callers re-seek rather
// than keep a cursor, since a slab split relocates segments.
func (t *BWTimeline) split(x float64) {
	c := t.st.search(endAtMost, x)
	if c.s == len(t.st.slabs) {
		return
	}
	s := t.st.at(c)
	if fptime.GeqEps(s.start, x) || fptime.LeqEps(s.end, x) {
		return // boundary already (approximately) present
	}
	left := seg{start: s.start, end: x, avail: s.avail, uses: append([]use(nil), s.uses...)}
	s.start = x
	t.st.insert(c, left, hoppable)
}

// reserve books rate bandwidth for owner over [a, b], splitting
// segments and creating new segments over idle time as needed. The
// caller must have verified availability.
func (t *BWTimeline) reserve(owner Owner, a, b, rate float64) {
	if b-a <= Eps || rate <= Eps {
		return
	}
	t.split(a)
	t.split(b)
	// Walk from a to b covering idle gaps with fresh segments, starting
	// at the first segment still relevant past a — the same cursor the
	// linear kernel derived by advancing its split index over segments
	// ending at or before a+Eps.
	cur := a
	c := t.seekEps(a)
	for fptime.LessEps(cur, b) {
		if c.s < len(t.st.slabs) && fptime.LeqEps(t.st.at(c).start, cur) {
			s := t.st.at(c)
			end := s.end
			if end > b {
				end = b
			}
			s.avail -= rate
			if s.avail < 0 {
				s.avail = 0
			}
			s.uses = append(s.uses, use{owner: owner, rate: rate})
			t.st.refresh(c.s, hoppable)
			cur = end
			c = t.st.next(c)
			continue
		}
		// Idle gap from cur to the next segment start (or to b).
		gapEnd := b
		if c.s < len(t.st.slabs) && t.st.at(c).start < gapEnd {
			gapEnd = t.st.at(c).start
		}
		ns := seg{start: cur, end: gapEnd, avail: 1 - rate, uses: []use{{owner: owner, rate: rate}}}
		c = t.st.next(t.st.insert(c, ns, hoppable))
		cur = gapEnd
	}
}

// availAt returns the remaining bandwidth fraction at time x and the
// time at which that fraction next changes (availability horizon).
func (t *BWTimeline) availAt(x float64) (avail, until float64) {
	c := t.seekEps(x)
	if c.s == len(t.st.slabs) {
		return 1, math.Inf(1)
	}
	s := t.st.at(c)
	if s.start > x+Eps {
		return 1, s.start // idle gap before the segment
	}
	return s.avail, s.end
}

// Alloc transfers volume units of data starting no earlier than es,
// using at each instant min(cap, remaining bandwidth) of the link whose
// transfer speed is speed. cap ≤ 0 means uncapped (full remaining
// bandwidth, as on the first route link). It reserves the bandwidth for
// owner and returns the chunks produced. A zero or negative volume
// yields a single empty chunk at es.
func (t *BWTimeline) Alloc(owner Owner, es, volume, speed, cap float64) []Chunk {
	if cap <= 0 || cap > 1 {
		cap = 1
	}
	if volume <= Eps {
		return []Chunk{{Start: es, End: es, Rate: 0, Volume: 0}}
	}
	var out []Chunk
	cur := math.Max(es, 0)
	remaining := volume
	for remaining > volume*1e-9+Eps/2 {
		avail, until := t.availAt(cur)
		rate := math.Min(avail, cap)
		if rate <= Eps {
			// Link saturated here; wait for the next change point,
			// hopping whole saturated slabs via their hop flags.
			// (With cap <= Eps every rate is saturated regardless of
			// availability, so there is nothing to skip to.)
			cur = until
			if cap > Eps {
				_, cur = t.skipSaturated(t.seekEps(cur), cur)
			}
			continue
		}
		// Time to drain the remaining volume at this rate.
		need := remaining / (rate * speed)
		end := cur + need
		if end > until {
			end = until
		}
		// edgelint:ignore floateq — exact zero-progress guard; an epsilon
		// here would abandon transfers that advance in sub-Eps steps.
		if end <= cur {
			// The residual volume's transfer time underflows the float
			// resolution at this time scale; it is negligible (≤ 1e-9
			// of the total), so stop rather than loop forever.
			break
		}
		moved := rate * speed * (end - cur)
		if moved > remaining {
			moved = remaining
		}
		t.reserve(owner, cur, end, rate)
		out = appendChunk(out, Chunk{Start: cur, End: end, Rate: rate, Volume: moved})
		remaining -= moved
		cur = end
	}
	return out
}

// appendChunk merges chunks that are contiguous with equal rate.
func appendChunk(cs []Chunk, c Chunk) []Chunk {
	if n := len(cs); n > 0 {
		last := &cs[n-1]
		if math.Abs(last.End-c.Start) <= Eps && math.Abs(last.Rate-c.Rate) <= Eps {
			last.End = c.End
			last.Volume += c.Volume
			return cs
		}
	}
	return append(cs, c)
}

// EstimateFinish computes, without mutating the timeline, when a
// transfer of volume at link speed speed starting no earlier than es
// (uncapped) would start and finish. Used as the modified-Dijkstra
// probe for BBSA routing.
//
// edgelint:noalloc
func (t *BWTimeline) EstimateFinish(es, volume, speed float64) (start, finish float64) {
	if volume <= Eps {
		return es, es
	}
	cur := math.Max(es, 0)
	remaining := volume
	start = -1
	// Monotone segment cursor: one seek seeds the walk, each iteration
	// advances in amortized O(1), and saturated stretches are hopped
	// slab-by-slab via their hop flags — the availability answers
	// are the ones availAt would give at every step.
	c := t.seekEps(cur)
	for remaining > volume*1e-9+Eps/2 {
		avail, until := 1.0, math.Inf(1)
		if c.s < len(t.st.slabs) {
			if s := t.st.at(c); s.start > cur+Eps {
				avail, until = 1, s.start // idle gap before the segment
			} else {
				avail, until = s.avail, s.end
			}
		}
		if avail <= Eps {
			cur = until
			c, cur = t.skipSaturated(c, cur)
			continue
		}
		if start < 0 {
			start = cur
		}
		need := remaining / (avail * speed)
		end := cur + need
		if end > until {
			end = until
		}
		// edgelint:ignore floateq — exact zero-progress guard, see Alloc.
		if end <= cur {
			// Residual transfer time underflows the float resolution;
			// the remaining volume is negligible at this time scale.
			break
		}
		remaining -= avail * speed * (end - cur)
		cur = end
		c = t.advanceEps(c, cur)
	}
	if start < 0 {
		start = cur
	}
	return start, cur
}

// Forward transfers the chunk sequence produced on the previous route
// link onto this link, honouring the link causality condition: chunk k
// is forwarded starting no earlier than its start on the previous link
// (plus the optional per-hop switching delay) and no earlier than the
// completion of chunk k-1's forwarding, at a bandwidth fraction of at
// most
//
//	min(rbr, prevRate · prevSpeed / speed)        (paper formula 4)
//
// so that the cumulative outflow never exceeds the cumulative inflow
// (Theorem 3). It reserves bandwidth for owner and returns the chunks
// produced on this link.
func (t *BWTimeline) Forward(owner Owner, in []Chunk, prevSpeed, speed, hopDelay float64) []Chunk {
	var out []Chunk
	cursor := 0.0
	for _, c := range in {
		if c.Volume <= Eps {
			if len(out) == 0 {
				out = append(out, Chunk{Start: c.Start + hopDelay, End: c.Start + hopDelay})
			}
			continue
		}
		es := math.Max(cursor, c.Start+hopDelay)
		cap := c.Rate * prevSpeed / speed
		cs := t.Alloc(owner, es, c.Volume, speed, cap)
		for _, oc := range cs {
			out = appendChunk(out, oc)
		}
		if n := len(out); n > 0 {
			cursor = out[n-1].End
		}
	}
	if len(out) == 0 {
		out = append(out, Chunk{})
	}
	return out
}

// Validate checks the ledger invariants: segments sorted, non-
// overlapping, with strictly increasing ends (the two-level search and
// the slab hops rely on that exactly); each segment's shares summing to
// 1-avail with avail ∈ [0, 1]; and the slab store's structure and hop
// flags consistent with the segments.
func (t *BWTimeline) Validate() error {
	i := 0
	prevEnd := math.Inf(-1)
	for k := range t.st.slabs {
		for _, s := range t.st.slabs[k].items {
			if fptime.LessEps(s.end, s.start) {
				return fmt.Errorf("linksched: bw segment %d inverted [%v, %v]", i, s.start, s.end)
			}
			if fptime.LessEps(s.start, prevEnd) {
				return fmt.Errorf("linksched: bw segment %d overlaps previous", i)
			}
			// edgelint:ignore floateq — the two-level search and the
			// advanceEps slab hop assume exactly increasing ends.
			if s.end <= prevEnd {
				return fmt.Errorf("linksched: bw segment %d end %v not increasing past %v", i, s.end, prevEnd)
			}
			sum := 0.0
			for _, u := range s.uses {
				if u.rate <= 0 || u.rate > 1+Eps {
					return fmt.Errorf("linksched: bw segment %d has invalid share %v", i, u.rate)
				}
				sum += u.rate
			}
			if sum > 1+1e-6 {
				return fmt.Errorf("linksched: bw segment %d oversubscribed: shares sum to %v", i, sum)
			}
			if math.Abs((1-sum)-s.avail) > 1e-6 {
				return fmt.Errorf("linksched: bw segment %d avail %v inconsistent with shares %v", i, s.avail, sum)
			}
			prevEnd = s.end
			i++
		}
	}
	return t.st.validate(hoppable)
}

// BWSnapshot captures a BWTimeline for later Restore.
type BWSnapshot struct {
	tl BWTimeline
}

// Snapshot returns a restorable deep copy of the current state.
func (t *BWTimeline) Snapshot() BWSnapshot {
	return t.SnapshotInto(BWSnapshot{})
}

// SnapshotInto captures the current state reusing the buffers of a
// stale snapshot (one that will never be restored again), including the
// slab arrays and per-segment use slices. See Timeline.SnapshotInto.
//
// edgelint:noalloc
func (t *BWTimeline) SnapshotInto(old BWSnapshot) BWSnapshot {
	old.tl.CopyFrom(t)
	return old
}

// Restore resets the timeline to a previously captured snapshot,
// including the hop flags — no refresh needed.
//
// edgelint:noalloc
func (t *BWTimeline) Restore(s BWSnapshot) { t.CopyFrom(&s.tl) }

// CopyFrom makes t an independent deep copy of src, reusing t's slab
// arrays and use buffers when they have capacity (see cloneSegs). The
// warm path — journaling into a stale snapshot, or restoring from one
// — does not allocate.
func (t *BWTimeline) CopyFrom(src *BWTimeline) { t.st.copyFrom(&src.st, cloneSegs) }

// NumSegments reports the number of segments (for tests/statistics).
func (t *BWTimeline) NumSegments() int { return t.st.n }
