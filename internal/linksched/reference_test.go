package linksched

import (
	"math"
	"sort"

	"repro/internal/fptime"
)

// The reference oracles: the original linear-scan exclusive-slot probes
// (over earliestGapLinear) and the flat-slice bandwidth ledger (bwRef).
// The slab-pruned kernels in timeline.go and bandwidth.go must return
// bit-identical results; the differential tests and the fuzz targets in
// differential_test.go drive both sides against the same operation
// sequences and compare with exact float equality.

// earliestGapLinear is the reference earliest-gap search: one pass over
// the sorted slots tracking the running maximum end, testing each
// leading gap with the Eps-tolerant fit test.
func earliestGapLinear(slots []Slot, lb, dur float64) float64 {
	prevEnd := 0.0
	for _, s := range slots {
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
	if prevEnd < lb {
		return lb
	}
	return prevEnd
}

// probeBasicLinear is ProbeBasic over the reference kernel.
func probeBasicLinear(slots []Slot, req Request) (start, finish float64) {
	lb := req.lowerBound()
	if req.Dur <= Eps {
		return lb, lb
	}
	start = earliestGapLinear(slots, lb, req.Dur)
	return start, start + req.Dur
}

// probeOptimalLinear is the reference optimal-insertion probe: the full
// tail-to-head slack scan with no early exit.
func probeOptimalLinear(slots []Slot, req Request, slack SlackFunc) (start, finish float64, pos int) {
	lb := req.lowerBound()
	if req.Dur <= Eps {
		return lb, lb, len(slots)
	}
	n := len(slots)
	bestStart := lb
	if n > 0 && slots[n-1].End > bestStart {
		bestStart = slots[n-1].End
	}
	bestPos := n
	accum := math.Inf(1)
	for i := n - 1; i >= 0; i-- {
		dt := slack(slots[i].Owner)
		if dt < 0 {
			dt = 0
		}
		gap := math.Inf(1)
		if i+1 < n {
			gap = slots[i+1].Start - slots[i].End
			if gap < 0 {
				gap = 0
			}
		}
		a := dt
		if accum+gap < a {
			a = accum + gap
		}
		accum = a
		sigma := lb
		if i > 0 && slots[i-1].End > sigma {
			sigma = slots[i-1].End
		}
		if fptime.LeqEps(sigma+req.Dur, slots[i].Start+accum) {
			if fptime.LeqEps(sigma, bestStart) {
				bestStart = sigma
				bestPos = i
			}
		}
	}
	return bestStart, bestStart + req.Dur, bestPos
}

// --- bandwidth reference kernels ------------------------------------
//
// bwRef is the pre-slab BWTimeline kept verbatim: one flat sorted
// segment slice, O(n) append+copy memmove on insert, and kernels that
// walk change points one segment at a time. The slab-store BWTimeline
// must reproduce its chunks, segments, and estimates
// bit-for-bit; the differential sweeps and FuzzBWTimelineDifferential
// in differential_test.go drive both sides through identical operation
// sequences and compare with exact float equality.

type bwRef struct {
	segs []refSeg
}

// refSeg is the reference's segment, declared apart from seg so the
// oracle shares no type with the ledger it checks.
type refSeg struct {
	start, end float64
	avail      float64
}

// refSplit ensures a segment boundary exists at time x and returns the
// index of the first segment whose end lies beyond x (after any
// insertion), so callers can keep walking without re-searching.
func (t *bwRef) split(x float64) int {
	i := sort.Search(len(t.segs), func(i int) bool { return t.segs[i].end > x })
	if i == len(t.segs) {
		return i
	}
	s := &t.segs[i]
	if fptime.GeqEps(s.start, x) || fptime.LeqEps(s.end, x) {
		return i // boundary already (approximately) present
	}
	left := refSeg{start: s.start, end: x, avail: s.avail}
	s.start = x
	t.segs = append(t.segs, refSeg{})
	copy(t.segs[i+1:], t.segs[i:])
	t.segs[i] = left
	return i + 1 // the right half, now starting at x
}

// reserve books rate bandwidth over [a, b] with the original linear
// walk and memmove inserts.
func (t *bwRef) reserve(a, b, rate float64) {
	if b-a <= Eps || rate <= Eps {
		return
	}
	ia := t.split(a)
	t.split(b) // inserts at an index >= ia, so ia stays valid
	cur := a
	i := ia
	// edgelint:ignore floateq — exact replica of the former
	// sort.Search(end > a+Eps) predicate; must match it bit-for-bit.
	for i < len(t.segs) && t.segs[i].end <= a+Eps {
		i++
	}
	for fptime.LessEps(cur, b) {
		if i < len(t.segs) && fptime.LeqEps(t.segs[i].start, cur) {
			s := &t.segs[i]
			end := s.end
			if end > b {
				end = b
			}
			s.avail -= rate
			if s.avail < 0 {
				s.avail = 0
			}
			cur = end
			i++
			continue
		}
		// Idle gap from cur to the next segment start (or to b).
		gapEnd := b
		if i < len(t.segs) && t.segs[i].start < gapEnd {
			gapEnd = t.segs[i].start
		}
		ns := refSeg{start: cur, end: gapEnd, avail: 1 - rate}
		t.segs = append(t.segs, refSeg{})
		copy(t.segs[i+1:], t.segs[i:])
		t.segs[i] = ns
		cur = gapEnd
		i++
	}
}

// availAt is the original binary-search availability lookup.
func (t *bwRef) availAt(x float64) (avail, until float64) {
	i := sort.Search(len(t.segs), func(i int) bool { return t.segs[i].end > x+Eps })
	if i == len(t.segs) {
		return 1, math.Inf(1)
	}
	s := t.segs[i]
	if s.start > x+Eps {
		return 1, s.start // idle gap before segment i
	}
	return s.avail, s.end
}

// alloc is BWTimeline.Alloc over the reference kernels.
func (t *bwRef) alloc(es, volume, speed, cap float64) []Chunk {
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
		if avail <= Eps {
			// Link saturated here; wait for the next change point,
			// unless there is none.
			cur = until
			if math.IsInf(cur, 1) {
				out = appendChunk(out, 0, Chunk{Start: cur, End: cur})
				break
			}
			continue
		}
		rate := math.Min(avail, cap)
		need := remaining / (rate * speed)
		end := cur + need
		if end > until {
			end = until
		}
		// edgelint:ignore floateq — exact zero-progress guard; see
		// BWTimeline.Alloc.
		if end <= cur {
			break
		}
		moved := rate * speed * (end - cur)
		if moved > remaining {
			moved = remaining
		}
		t.reserve(cur, end, rate)
		out = appendChunk(out, 0, Chunk{Start: cur, End: end, Rate: rate, Volume: moved})
		remaining -= moved
		cur = end
	}
	return out
}

// estimateFinish is BWTimeline.EstimateFinish over the reference
// kernels: the monotone cursor advanced one segment at a time.
func (t *bwRef) estimateFinish(es, volume, speed float64) (start, finish float64) {
	if volume <= Eps {
		return es, es
	}
	cur := math.Max(es, 0)
	remaining := volume
	start = -1
	i := sort.Search(len(t.segs), func(i int) bool { return t.segs[i].end > cur+Eps })
	for remaining > volume*1e-9+Eps/2 {
		avail, until := 1.0, math.Inf(1)
		if i < len(t.segs) {
			if s := &t.segs[i]; s.start > cur+Eps {
				avail, until = 1, s.start // idle gap before segment i
			} else {
				avail, until = s.avail, s.end
			}
		}
		if avail <= Eps {
			cur = until
			// edgelint:ignore floateq — exact replica of availAt's
			// sort.Search(end > cur+Eps) predicate.
			for i < len(t.segs) && t.segs[i].end <= cur+Eps {
				i++
			}
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
		// edgelint:ignore floateq — exact zero-progress guard.
		if end <= cur {
			break
		}
		remaining -= avail * speed * (end - cur)
		cur = end
		// edgelint:ignore floateq — exact replica of availAt's
		// sort.Search(end > cur+Eps) predicate.
		for i < len(t.segs) && t.segs[i].end <= cur+Eps {
			i++
		}
	}
	if start < 0 {
		start = cur
	}
	return start, cur
}

// forward is BWTimeline.Forward over the reference alloc.
func (t *bwRef) forward(in []Chunk, prevSpeed, speed, hopDelay float64) []Chunk {
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
		cs := t.alloc(es, c.Volume, speed, cap)
		for _, oc := range cs {
			out = appendChunk(out, 0, oc)
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
