package linksched

import (
	"fmt"
	"math"
	"sort"

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

// bwBlock is the nominal slab size of the chunked segment store: slabs
// hold between 1 and 2*bwBlock segments and split in half when they
// overflow, so an insert moves O(bwBlock) segments instead of the whole
// ledger. One slab is also one summary block for the availability
// index, mirroring gapBlock on the exclusive-slot Timeline.
const bwBlock = 32

// bwChunk is one slab of the chunked segment store together with the
// summary the sublinear kernels prune on: a pure fold of the slab's
// segments, recomputed by reindexChunk after every mutation of the slab
// and verified exactly by Validate.
type bwChunk struct {
	segs []seg // 1..2*bwBlock segments, globally sorted

	// hop reports that skipSaturated's per-segment walk, once it has
	// entered the slab at its first segment, would consume every segment
	// in turn: each is saturated (avail <= Eps), each after the first
	// starts no later than its predecessor's end plus Eps (no idle gap
	// to stop in), and each ends beyond its predecessor's end plus Eps
	// (the cursor's advance lands on it rather than past it). The tests
	// are the walk's own float expressions, so the flag is exact at
	// every time magnitude.
	hop bool
}

// lastEnd is the slab's greatest segment end (ends increase strictly).
func (c *bwChunk) lastEnd() float64 { return c.segs[len(c.segs)-1].end }

// BWTimeline is the per-link bandwidth ledger used by BBSA: multiple
// communications may share a link concurrently as long as their
// bandwidth fractions sum to at most 1.
//
// Segments live in chunked slabs (bwChunk) rather than one flat slice,
// so reserve's splits and gap-fills cost O(bwBlock), and each slab
// carries a saturation flag that lets Alloc/EstimateFinish skip
// saturated stretches block-by-block. Both kernels remain bit-identical
// to the retained linear reference (bwRef in reference_test.go): a hop
// takes exactly the steps the linear walk would, enforced by the
// differential sweeps and FuzzBWTimelineDifferential.
//
// The zero value is an idle timeline ready for use.
type BWTimeline struct {
	chunks []bwChunk
	nsegs  int // total segments across chunks
}

// NewBWTimeline returns an idle bandwidth timeline.
func NewBWTimeline() *BWTimeline { return &BWTimeline{} }

// Reset empties the ledger in place, retaining the slab backing array
// so a reused scheduler state keeps it for its next request. The
// result is indistinguishable from a fresh zero-value ledger.
func (t *BWTimeline) Reset() {
	t.chunks = t.chunks[:0]
	t.nsegs = 0
}

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
	out := make([]SegmentInfo, 0, t.nsegs)
	for ci := range t.chunks {
		for _, s := range t.chunks[ci].segs {
			info := SegmentInfo{Start: s.start, End: s.end, Avail: s.avail}
			for _, u := range s.uses {
				info.Uses = append(info.Uses, SegmentUse{Owner: u.owner, Rate: u.rate})
			}
			out = append(out, info)
		}
	}
	return out
}

// seek returns the position of the first segment whose end lies beyond
// y, or (len(chunks), 0) past the last segment. Segment ends increase
// strictly across the whole store (Validate enforces this exactly), so
// the two-level binary search — slab by last end, then within the slab
// — lands on the same segment a flat sort.Search would.
func (t *BWTimeline) seek(y float64) (ci, si int) {
	ci = sort.Search(len(t.chunks), func(i int) bool { return t.chunks[i].lastEnd() > y })
	if ci == len(t.chunks) {
		return ci, 0
	}
	c := &t.chunks[ci]
	si = sort.Search(len(c.segs), func(i int) bool { return c.segs[i].end > y })
	return ci, si
}

// seekEps is THE availability-cursor predicate: the first segment whose
// end lies beyond x+Eps. Formerly availAt's sort.Search closure, with
// hand-rolled linear replicas in reserve and EstimateFinish (×2); the
// cursor convention now lives here and in advanceEps only.
func (t *BWTimeline) seekEps(x float64) (ci, si int) { return t.seek(x + Eps) }

// advance moves the cursor one segment forward.
func (t *BWTimeline) advance(ci, si int) (int, int) {
	if si++; si == len(t.chunks[ci].segs) {
		return ci + 1, 0
	}
	return ci, si
}

// advanceEps advances the cursor past every segment ending at or before
// x+Eps — seekEps's predicate applied linearly from a known position,
// as the kernels' monotone cursors require (amortized O(1) per call).
// Slabs that fail the predicate wholesale (last end <= x+Eps) are
// hopped in one exact step.
func (t *BWTimeline) advanceEps(ci, si int, x float64) (int, int) {
	y := x + Eps
	for ci < len(t.chunks) {
		c := &t.chunks[ci]
		// edgelint:ignore floateq — exact replica of seekEps's
		// sort.Search(end > x+Eps) predicate; must match bit-for-bit.
		if si == 0 && !(c.lastEnd() > y) {
			ci++
			continue
		}
		// edgelint:ignore floateq — exact replica of seekEps's predicate.
		if c.segs[si].end > y {
			return ci, si
		}
		if si++; si == len(c.segs) {
			ci, si = ci+1, 0
		}
	}
	return ci, 0
}

// skipSaturated advances cur (and the cursor) through the maximal run
// of saturated coverage starting at cur, exactly as the per-segment
// loop "cur = until; advance" of the linear kernels would: each step
// requires the next segment to lead cur with no gap (start <= cur+Eps)
// and to be saturated (avail <= Eps), and moves cur to its end. A slab
// entered at its first segment is consumed in one step when that
// segment passes the gap test and the slab's hop flag holds — the flag
// certifies every later per-segment test inside.
func (t *BWTimeline) skipSaturated(ci, si int, cur float64) (int, int, float64) {
	ci, si = t.advanceEps(ci, si, cur)
	for ci < len(t.chunks) {
		c := &t.chunks[ci]
		// edgelint:ignore floateq — the exact entering-gap test of the
		// walk; the flag covers the rest of the slab.
		if si == 0 && c.hop && !(c.segs[0].start > cur+Eps) {
			cur = c.lastEnd()
			ci, si = t.advanceEps(ci+1, 0, cur)
			continue
		}
		s := &c.segs[si]
		// edgelint:ignore floateq — exact replicas of the linear
		// kernels' gap (start > cur+Eps) and saturation (avail > Eps)
		// stop tests.
		if s.start > cur+Eps || s.avail > Eps {
			break
		}
		cur = s.end
		ci, si = t.advanceEps(ci, si, cur)
	}
	return ci, si, cur
}

// reindexChunk recomputes chunk ci's hop flag from its segments.
func (t *BWTimeline) reindexChunk(ci int) {
	c := &t.chunks[ci]
	c.hop = hoppable(c.segs)
}

// hoppable folds a slab's hop flag (see bwChunk.hop). Each test is
// written as the walk evaluates it, with cur the previous segment's
// end: the gap stop "start > cur+Eps" and the cursor advance
// "end > cur+Eps".
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

// insertSegAt inserts s before the segment at (ci, si); (len(chunks),
// 0) appends past the last segment. The receiving slab splits in half
// when it outgrows 2*bwBlock, and the touched slabs are reindexed. It
// returns the inserted segment's (possibly relocated) position. Cost:
// O(bwBlock) segment movement plus, on the rare split, O(len(chunks))
// header movement — never the O(total segments) memmove of the flat
// store.
func (t *BWTimeline) insertSegAt(ci, si int, s seg) (int, int) {
	if ci == len(t.chunks) {
		if len(t.chunks) == 0 {
			t.chunks = append(t.chunks, bwChunk{})
		} else {
			ci = len(t.chunks) - 1
			si = len(t.chunks[ci].segs)
		}
	}
	c := &t.chunks[ci]
	c.segs = append(c.segs, seg{})
	copy(c.segs[si+1:], c.segs[si:])
	c.segs[si] = s
	t.nsegs++
	if len(c.segs) > 2*bwBlock {
		// Split in half. The right half must be a fresh slice: the
		// truncated left slab's capacity region still holds stale seg
		// structs whose use slices would otherwise be shared backings.
		half := len(c.segs) / 2
		rest := make([]seg, len(c.segs)-half, 2*bwBlock+1)
		copy(rest, c.segs[half:])
		t.chunks = append(t.chunks, bwChunk{})
		copy(t.chunks[ci+2:], t.chunks[ci+1:])
		t.chunks[ci].segs = t.chunks[ci].segs[:half]
		t.chunks[ci+1] = bwChunk{segs: rest}
		t.reindexChunk(ci)
		t.reindexChunk(ci + 1)
		if si >= half {
			return ci + 1, si - half
		}
		return ci, si
	}
	t.reindexChunk(ci)
	return ci, si
}

// split ensures a segment boundary exists at time x. Only called for x
// within or at the edge of existing segments; callers re-seek rather
// than keep an index, since a slab split relocates segments.
func (t *BWTimeline) split(x float64) {
	ci, si := t.seek(x)
	if ci == len(t.chunks) {
		return
	}
	s := &t.chunks[ci].segs[si]
	if fptime.GeqEps(s.start, x) || fptime.LeqEps(s.end, x) {
		return // boundary already (approximately) present
	}
	left := seg{start: s.start, end: x, avail: s.avail, uses: append([]use(nil), s.uses...)}
	s.start = x
	t.insertSegAt(ci, si, left)
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
	ci, si := t.seekEps(a)
	for fptime.LessEps(cur, b) {
		if ci < len(t.chunks) && fptime.LeqEps(t.chunks[ci].segs[si].start, cur) {
			s := &t.chunks[ci].segs[si]
			end := s.end
			if end > b {
				end = b
			}
			s.avail -= rate
			if s.avail < 0 {
				s.avail = 0
			}
			s.uses = append(s.uses, use{owner: owner, rate: rate})
			t.reindexChunk(ci)
			cur = end
			ci, si = t.advance(ci, si)
			continue
		}
		// Idle gap from cur to the next segment start (or to b).
		gapEnd := b
		if ci < len(t.chunks) && t.chunks[ci].segs[si].start < gapEnd {
			gapEnd = t.chunks[ci].segs[si].start
		}
		ns := seg{start: cur, end: gapEnd, avail: 1 - rate, uses: []use{{owner: owner, rate: rate}}}
		ci, si = t.insertSegAt(ci, si, ns)
		cur = gapEnd
		ci, si = t.advance(ci, si)
	}
}

// availAt returns the remaining bandwidth fraction at time x and the
// time at which that fraction next changes (availability horizon).
func (t *BWTimeline) availAt(x float64) (avail, until float64) {
	ci, si := t.seekEps(x)
	if ci == len(t.chunks) {
		return 1, math.Inf(1)
	}
	s := &t.chunks[ci].segs[si]
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
				ci, si := t.seekEps(cur)
				_, _, cur = t.skipSaturated(ci, si, cur)
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
	ci, si := t.seekEps(cur)
	for remaining > volume*1e-9+Eps/2 {
		avail, until := 1.0, math.Inf(1)
		if ci < len(t.chunks) {
			if s := &t.chunks[ci].segs[si]; s.start > cur+Eps {
				avail, until = 1, s.start // idle gap before the segment
			} else {
				avail, until = s.avail, s.end
			}
		}
		if avail <= Eps {
			cur = until
			ci, si, cur = t.skipSaturated(ci, si, cur)
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
		ci, si = t.advanceEps(ci, si, cur)
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
// 1-avail with avail ∈ [0, 1]; and every slab's hop flag equal to a
// fresh recomputation.
func (t *BWTimeline) Validate() error {
	i := 0
	prevEnd := math.Inf(-1)
	for ci := range t.chunks {
		for _, s := range t.chunks[ci].segs {
			if fptime.LessEps(s.end, s.start) {
				return fmt.Errorf("linksched: bw segment %d inverted [%v, %v]", i, s.start, s.end)
			}
			if fptime.LessEps(s.start, prevEnd) {
				return fmt.Errorf("linksched: bw segment %d overlaps previous", i)
			}
			// edgelint:ignore floateq — the chunked binary search and
			// the advanceEps slab hop assume exactly increasing ends.
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
	if i != t.nsegs {
		return fmt.Errorf("linksched: bw store counts %d segments, holds %d", t.nsegs, i)
	}
	return t.validateChunks()
}

// validateChunks checks the slab structure and recomputes every slab's
// hop flag: the flag is a fold of the very float64 values the
// recomputation reads, so any difference is an index-maintenance bug,
// not rounding.
func (t *BWTimeline) validateChunks() error {
	for ci := range t.chunks {
		c := &t.chunks[ci]
		if len(c.segs) == 0 {
			return fmt.Errorf("linksched: bw chunk %d is empty", ci)
		}
		if len(c.segs) > 2*bwBlock {
			return fmt.Errorf("linksched: bw chunk %d holds %d segments (max %d)", ci, len(c.segs), 2*bwBlock)
		}
		if hop := hoppable(c.segs); c.hop != hop {
			return fmt.Errorf("linksched: bw chunk %d hop flag %v != recomputed %v", ci, c.hop, hop)
		}
	}
	return nil
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
// per-slab segment slices and per-segment use slices. See
// Timeline.SnapshotInto.
//
// edgelint:noalloc
func (t *BWTimeline) SnapshotInto(old BWSnapshot) BWSnapshot {
	old.tl.CopyFrom(t)
	return old
}

// Restore resets the timeline to a previously captured snapshot,
// including the hop flags — no reindex needed.
//
// edgelint:noalloc
func (t *BWTimeline) Restore(s BWSnapshot) { t.CopyFrom(&s.tl) }

// copyChunks deep-copies src into dst's backing storage, reusing the
// outer slice, the per-slab segment slices, and the per-segment use
// buffers they already hold. dst and src never share those buffers
// (snapshots copy out of the timeline, the timeline copies out of
// snapshots), so the element-wise copies cannot alias.
func copyChunks(dst, src []bwChunk) []bwChunk {
	n := len(src)
	if cap(dst) < n {
		// edgelint:coldpath — one-time snapshot-buffer growth; the
		// capacity persists across transactions via the stale snapshot.
		dst = append(dst[:cap(dst)], make([]bwChunk, n-cap(dst))...)
	}
	dst = dst[:n]
	for i := range src {
		c := &src[i]
		dst[i].segs = copySegs(dst[i].segs, c.segs)
		dst[i].hop = c.hop
	}
	return dst
}

// copySegs deep-copies src into dst's backing storage, reusing the
// outer slice and the per-segment use buffers it already holds. dst and
// src never share use slices (snapshots copy out of the timeline, the
// timeline copies out of snapshots), so the element-wise copy cannot
// alias.
func copySegs(dst, src []seg) []seg {
	n := len(src)
	if cap(dst) < n {
		// edgelint:coldpath — one-time snapshot-buffer growth; the
		// capacity persists across transactions via the stale snapshot.
		dst = append(dst[:cap(dst)], make([]seg, n-cap(dst))...)
	}
	dst = dst[:n]
	for i, s := range src {
		dst[i].start, dst[i].end, dst[i].avail = s.start, s.end, s.avail
		dst[i].uses = append(dst[i].uses[:0], s.uses...)
	}
	return dst
}

// CopyFrom makes t an independent deep copy of src, reusing t's slab
// and use buffers when they have capacity (see copyChunks). The warm
// path — journaling into a stale snapshot, or restoring from one —
// does not allocate.
func (t *BWTimeline) CopyFrom(src *BWTimeline) {
	t.chunks = copyChunks(t.chunks, src.chunks)
	t.nsegs = src.nsegs
}

// NumSegments reports the number of segments (for tests/statistics).
func (t *BWTimeline) NumSegments() int { return t.nsegs }
