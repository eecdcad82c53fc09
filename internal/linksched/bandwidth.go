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

// seg is an interval of a bandwidth timeline with constant remaining
// bandwidth. Segments are sorted, non-overlapping; time not covered by
// any segment is fully idle. Segments hold no pointers, so the slab
// arrays are plain memory to the garbage collector and a slab copy is
// one memmove.
type seg struct {
	start, end float64
	avail      float64 // remaining bandwidth fraction in [0, 1]
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
// The ledger books availability only: each segment holds the fraction
// of the link still free over its interval, which is all BBSA's chunk
// sizing (§5, formula 4) reads. Who holds the rest is recorded in the
// chunks Alloc and Forward return, and the schedule verifier checks
// link capacity from those.
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
}

// Segments returns a copy of the current segments in time order.
func (t *BWTimeline) Segments() []SegmentInfo {
	out := make([]SegmentInfo, 0, t.st.n)
	for k := range t.st.slabs {
		for _, s := range t.st.slabs[k].items {
			out = append(out, SegmentInfo{Start: s.start, End: s.end, Avail: s.avail})
		}
	}
	return out
}

// seekEps is THE availability-cursor predicate: the first segment whose
// end lies beyond x+Eps. Segment ends increase strictly across the
// whole store (Validate enforces this exactly), so the store's
// two-level search lands where a flat binary search would. The cursor
// convention lives here, in advanceEps, and in the seeks from a known
// position (slabStore.seek with endAtMost at x+Eps) of alloc and
// reserve. Each kernel searches once per call — EstimateFinish, and
// AppendAlloc and Forward for their first chunk — and moves its
// cursor from there.
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
// within or at the edge of existing segments. It seeks the segment
// split would cut from c, a position near x, and returns a position
// near x that is valid after the split: the new left half's, or the
// seek's when no split was needed.
func (t *BWTimeline) split(c cursor, x float64) cursor {
	c = t.st.seek(c, endAtMost, x)
	if c.s == len(t.st.slabs) {
		return c
	}
	s := t.st.at(c)
	if fptime.GeqEps(s.start, x) || fptime.LeqEps(s.end, x) {
		return c // boundary already (approximately) present
	}
	left := seg{start: s.start, end: x, avail: s.avail}
	s.start = x
	return t.st.insert(c, left, hoppable, nil)
}

// reserve books rate bandwidth over [a, b], splitting segments and
// creating new segments over idle time as needed. The caller must have
// verified availability. c is a position near a, and the result is a
// position near b that is valid after every insert reserve made: each
// step moves on from the position the last insert returned, since a
// slab split relocates segments.
func (t *BWTimeline) reserve(c cursor, a, b, rate float64) cursor {
	if b-a <= Eps || rate <= Eps {
		return c
	}
	c = t.split(c, a)
	c = t.split(c, b)
	// Walk from a to b covering idle gaps with fresh segments, starting
	// at the first segment still relevant past a — the same cursor the
	// linear kernel derived by advancing its split index over segments
	// ending at or before a+Eps.
	cur := a
	c = t.st.seek(c, endAtMost, a+Eps)
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
		ns := seg{start: cur, end: gapEnd, avail: 1 - rate}
		c = t.st.next(t.st.insert(c, ns, hoppable, nil))
		cur = gapEnd
	}
	return c
}

// availAt returns the remaining bandwidth fraction at time x and the
// time at which that fraction next changes (availability horizon),
// reading the segment at c, which must be seekEps(x).
func (t *BWTimeline) availAt(c cursor, x float64) (avail, until float64) {
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
// bandwidth, as on the first route link). It reserves the bandwidth and
// returns the chunks produced. A zero or negative volume yields a
// single empty chunk at es. The owner is not recorded: the ledger books
// availability only (see BWTimeline), and the returned chunks are the
// record of the transfer.
func (t *BWTimeline) Alloc(owner Owner, es, volume, speed, cap float64) []Chunk {
	return t.AppendAlloc(nil, es, volume, speed, cap)
}

// AppendAlloc is Alloc appending its chunks to dst; the chunks already
// in dst are neither read nor merged with.
func (t *BWTimeline) AppendAlloc(dst []Chunk, es, volume, speed, cap float64) []Chunk {
	if volume <= Eps {
		return append(dst, Chunk{Start: es, End: es, Rate: 0, Volume: 0})
	}
	out, _ := t.alloc(dst, t.seekEps(math.Max(es, 0)), es, volume, speed, cap)
	return out
}

// alloc is AppendAlloc for a volume above Eps, walking one cursor: c
// is any position near seekEps(max(es, 0)) — one seek by the caller,
// or where the caller's previous alloc on this ledger left off — and
// the availability lookup, the splits and the booking of every step
// each move it on from where the last one left it. It returns the
// chunks and the final cursor.
func (t *BWTimeline) alloc(dst []Chunk, c cursor, es, volume, speed, cap float64) ([]Chunk, cursor) {
	if cap <= 0 || cap > 1 {
		cap = 1
	}
	base, out := len(dst), dst
	cur := math.Max(es, 0)
	remaining := volume
	for remaining > volume*1e-9+Eps/2 {
		c = t.st.seek(c, endAtMost, cur+Eps)
		avail, until := t.availAt(c, cur)
		if avail <= Eps {
			// Link saturated here; wait for the next change point,
			// hopping whole saturated slabs via their hop flags.
			// Nothing frees after an infinite time: the transfer ends
			// there.
			cur = until
			if math.IsInf(cur, 1) {
				out = appendChunk(out, base, Chunk{Start: cur, End: cur})
				break
			}
			c, cur = t.skipSaturated(c, cur)
			continue
		}
		// A cap at or below Eps (a chunk from a link over 1e9 times
		// slower) still moves: reserve books no sub-Eps rate, as it
		// books no sub-Eps duration.
		rate := math.Min(avail, cap)
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
		c = t.reserve(c, cur, end, rate)
		out = appendChunk(out, base, Chunk{Start: cur, End: end, Rate: rate, Volume: moved})
		remaining -= moved
		cur = end
	}
	return out, c
}

// appendChunk appends c to cs, merging it into cs's last chunk when
// that lies at index from or later and is contiguous with c at an equal
// rate.
func appendChunk(cs []Chunk, from int, c Chunk) []Chunk {
	if n := len(cs); n > from {
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
	// are availAt's at a fresh seekEps, at every step.
	c := t.seekEps(cur)
	for remaining > volume*1e-9+Eps/2 {
		avail, until := t.availAt(c, cur)
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
// (Theorem 3). It reserves the bandwidth and appends the chunks
// produced on this link to dst, which must not overlap in.
func (t *BWTimeline) Forward(dst []Chunk, in []Chunk, prevSpeed, speed, hopDelay float64) []Chunk {
	base, out := len(dst), dst
	ready := 0.0
	// One ledger cursor serves the whole leg: seeded by one seek at the
	// first chunk with volume, then carried from each chunk's alloc to
	// the next, whose start is close to where the last one ended.
	var pos cursor
	sought := false
	for _, c := range in {
		if c.Volume <= Eps {
			if len(out) == base {
				out = append(out, Chunk{Start: c.Start + hopDelay, End: c.Start + hopDelay})
			}
			continue
		}
		es := math.Max(ready, c.Start+hopDelay)
		if !sought {
			pos, sought = t.seekEps(math.Max(es, 0)), true
		}
		cap := c.Rate * prevSpeed / speed
		// Each alloc's chunks are merged among themselves past out's
		// end, then folded into out one at a time, in place: the fold
		// writes at or below the chunk it reads.
		n0 := len(out)
		var all []Chunk
		all, pos = t.alloc(out, pos, es, c.Volume, speed, cap)
		out = all[:n0]
		for _, ac := range all[n0:] {
			out = appendChunk(out, base, ac)
		}
		if n := len(out); n > base {
			ready = out[n-1].End
		}
	}
	if len(out) == base {
		out = append(out, Chunk{})
	}
	return out
}

// Validate checks the ledger invariants: segments sorted, non-
// overlapping, with strictly increasing ends (the two-level search and
// the slab hops rely on that exactly); avail ∈ [0, 1]; and the slab
// store's structure and hop flags consistent with the segments. An
// over-booking does not show here, since reserve clamps avail at 0;
// the chunks' rates summed per instant show it (verify's link capacity
// check).
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
			if !(s.avail >= 0 && s.avail <= 1) {
				return fmt.Errorf("linksched: bw segment %d avail %v outside [0, 1]", i, s.avail)
			}
			prevEnd = s.end
			i++
		}
	}
	return t.st.validate(hoppable)
}

// CopyFrom makes t an independent deep copy of src, hop flags
// included, reusing t's slab arrays when they have capacity. The warm
// path — journaling into a stale copy, or restoring from one — is one
// copy per slab and no allocation.
func (t *BWTimeline) CopyFrom(src *BWTimeline) { t.st.copyFrom(&src.st) }

// NumSegments reports the number of segments (for tests/statistics).
func (t *BWTimeline) NumSegments() int { return t.st.n }
