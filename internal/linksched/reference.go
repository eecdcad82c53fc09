package linksched

import "repro/internal/fptime"

// This file keeps the original linear-scan earliest-gap search, which
// the indexed Timeline still falls back to on short slot lists
// (timeline.go). It is also the root of the reference oracles in
// reference_test.go, against which the differential tests and fuzz
// targets check the indexed kernels with exact float equality.

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
