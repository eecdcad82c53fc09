package linksched

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func totalVolume(cs []Chunk) float64 {
	v := 0.0
	for _, c := range cs {
		v += c.Volume
	}
	return v
}

func TestAllocIdleLink(t *testing.T) {
	bw := NewBWTimeline()
	cs := bw.Alloc(o(0, 0), 5, 10, 2, 0) // volume 10 at speed 2 → 5 time units
	if len(cs) != 1 {
		t.Fatalf("chunks=%d, want 1: %+v", len(cs), cs)
	}
	c := cs[0]
	if c.Start != 5 || math.Abs(c.End-10) > Eps || c.Rate != 1 {
		t.Fatalf("chunk %+v, want [5,10] rate 1", c)
	}
	if math.Abs(c.Volume-10) > Eps {
		t.Fatalf("volume %v, want 10", c.Volume)
	}
	if err := bw.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocSharesBandwidth(t *testing.T) {
	bw := NewBWTimeline()
	// Edge 0 takes 50% over [0,10] (cap 0.5), leaving 50%.
	cs0 := bw.Alloc(o(0, 0), 0, 5, 1, 0.5)
	if len(cs0) != 1 || math.Abs(cs0[0].End-10) > Eps {
		t.Fatalf("edge0 chunks %+v", cs0)
	}
	// Edge 1 uncapped from 0: gets 0.5 over [0,10], then 1.0 after.
	cs1 := bw.Alloc(o(1, 0), 0, 10, 1, 0)
	if len(cs1) != 2 {
		t.Fatalf("edge1 chunks %+v", cs1)
	}
	if math.Abs(cs1[0].Rate-0.5) > Eps || math.Abs(cs1[0].End-10) > Eps {
		t.Fatalf("edge1 first chunk %+v", cs1[0])
	}
	if math.Abs(cs1[1].Rate-1.0) > Eps || math.Abs(cs1[1].End-15) > Eps {
		t.Fatalf("edge1 second chunk %+v", cs1[1])
	}
	if math.Abs(totalVolume(cs1)-10) > 1e-9 {
		t.Fatalf("edge1 moved %v, want 10", totalVolume(cs1))
	}
	if err := bw.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocWaitsForSaturatedLink(t *testing.T) {
	bw := NewBWTimeline()
	bw.Alloc(o(0, 0), 0, 10, 1, 0) // full bandwidth [0,10]
	cs := bw.Alloc(o(1, 0), 0, 5, 1, 0)
	if len(cs) != 1 || cs[0].Start != 10 || math.Abs(cs[0].End-15) > Eps {
		t.Fatalf("chunks %+v, want one chunk [10,15]", cs)
	}
}

func TestAllocZeroVolume(t *testing.T) {
	bw := NewBWTimeline()
	cs := bw.Alloc(o(0, 0), 7, 0, 1, 0)
	if len(cs) != 1 || cs[0].Start != 7 || cs[0].End != 7 || cs[0].Volume != 0 {
		t.Fatalf("chunks %+v", cs)
	}
	if bw.NumSegments() != 0 {
		t.Fatalf("zero-volume alloc must not reserve")
	}
}

func TestEstimateFinishMatchesAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	bw := NewBWTimeline()
	for i := 0; i < 40; i++ {
		es := r.Float64() * 50
		vol := r.Float64()*20 + 0.1
		speed := r.Float64()*9 + 1
		s1, f1 := bw.EstimateFinish(es, vol, speed)
		cs := bw.Alloc(o(i, 0), es, vol, speed, 0)
		if math.Abs(cs[0].Start-s1) > 1e-9 {
			t.Fatalf("i=%d: estimate start %v, alloc start %v", i, s1, cs[0].Start)
		}
		if math.Abs(cs[len(cs)-1].End-f1) > 1e-6 {
			t.Fatalf("i=%d: estimate finish %v, alloc finish %v", i, f1, cs[len(cs)-1].End)
		}
		if err := bw.Validate(); err != nil {
			t.Fatalf("i=%d: %v", i, err)
		}
	}
}

func TestForwardSameSpeedIdleLink(t *testing.T) {
	up := NewBWTimeline()
	down := NewBWTimeline()
	in := up.Alloc(o(0, 0), 0, 10, 1, 0) // [0,10] rate 1
	out := down.Forward(nil, in, 1, 1, 0)
	// Cut-through at equal speed: downstream mirrors upstream.
	if len(out) != 1 || out[0].Start != 0 || math.Abs(out[0].End-10) > Eps {
		t.Fatalf("out %+v", out)
	}
	if math.Abs(totalVolume(out)-10) > 1e-9 {
		t.Fatalf("volume %v", totalVolume(out))
	}
}

func TestForwardFasterLinkIsRateCapped(t *testing.T) {
	up := NewBWTimeline()
	down := NewBWTimeline()
	in := up.Alloc(o(0, 0), 0, 10, 1, 0) // rate 1 at speed 1 → 10s
	out := down.Forward(nil, in, 1, 2, 0)
	// Downstream speed 2 but inflow is 1 byte/s → rate 0.5, same 10s.
	if len(out) != 1 {
		t.Fatalf("out %+v", out)
	}
	if math.Abs(out[0].Rate-0.5) > Eps || math.Abs(out[0].End-10) > Eps {
		t.Fatalf("out %+v, want rate 0.5 end 10", out[0])
	}
}

func TestForwardSlowerLinkStretches(t *testing.T) {
	up := NewBWTimeline()
	down := NewBWTimeline()
	in := up.Alloc(o(0, 0), 0, 10, 2, 0) // [0,5] at speed 2
	out := down.Forward(nil, in, 2, 1, 0)
	// Downstream speed 1: takes 10s even though data arrives in 5.
	if math.Abs(out[len(out)-1].End-10) > Eps {
		t.Fatalf("out %+v, want end 10", out)
	}
	if math.Abs(totalVolume(out)-10) > 1e-9 {
		t.Fatalf("volume %v", totalVolume(out))
	}
}

func TestForwardNeverOutrunsInflow(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		up := NewBWTimeline()
		down := NewBWTimeline()
		// Random pre-existing load on both links.
		for i := 0; i < 5; i++ {
			up.Alloc(o(100+i, 0), r.Float64()*20, r.Float64()*10, 1, r.Float64())
			down.Alloc(o(200+i, 0), r.Float64()*20, r.Float64()*10, 1, r.Float64())
		}
		vol := r.Float64()*15 + 0.5
		speedUp := r.Float64()*9 + 1
		speedDown := r.Float64()*9 + 1
		in := up.Alloc(o(0, 0), r.Float64()*10, vol, speedUp, 0)
		out := down.Forward(nil, in, speedUp, speedDown, 0)
		if math.Abs(totalVolume(out)-vol) > 1e-6*vol+1e-9 {
			t.Fatalf("trial %d: forwarded %v of %v", trial, totalVolume(out), vol)
		}
		// Cumulative outflow ≤ cumulative inflow at all chunk edges.
		cum := func(cs []Chunk, x float64) float64 {
			v := 0.0
			for _, c := range cs {
				if c.End <= x {
					v += c.Volume
				} else if c.Start < x {
					v += c.Volume * (x - c.Start) / (c.End - c.Start)
				}
			}
			return v
		}
		for _, c := range out {
			for _, x := range []float64{c.Start, (c.Start + c.End) / 2, c.End} {
				if cum(out, x) > cum(in, x)+1e-6*vol+1e-9 {
					t.Fatalf("trial %d: outflow %v > inflow %v at t=%v",
						trial, cum(out, x), cum(in, x), x)
				}
			}
		}
		if err := down.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestNoUnderflowHangAtLargeTimes(t *testing.T) {
	// Regression: at large absolute times, the drain time of a tiny
	// residual volume can underflow one ulp of the clock
	// (cur + need == cur), which used to spin Alloc/EstimateFinish
	// forever. Found by the Figure 3 full-scale run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		bw := NewBWTimeline()
		// Occupy [1e9, 1e9+1000] fully, then transfer a volume whose
		// remaining-time steps underflow at t ≈ 1e9.
		bw.Alloc(o(0, 0), 1e9, 1000*1000, 1000, 0)
		bw.EstimateFinish(1e9, 1e-5, 1000)
		bw.Alloc(o(1, 0), 1e9, 1e-5, 1000, 0)
		if err := bw.Validate(); err != nil {
			t.Errorf("validate: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("bandwidth timeline spun on underflowing residual volume")
	}
}

// TestForwardStopsAtInfinity pins that a transfer behind a link booked
// full until +Inf (by a transfer whose time overflows) finishes at +Inf
// instead of waiting forever for a change point past the ledger's end,
// and that a chunk from a link 1e12 times slower, whose cap of 1e-12
// is below Eps, still moves at that cap and finishes.
func TestForwardStopsAtInfinity(t *testing.T) {
	in := []Chunk{{Start: 1, End: 2, Rate: 1, Volume: 1}}
	done := make(chan [2][]Chunk, 1)
	go func() {
		full := NewBWTimeline()
		full.Alloc(o(0, 0), 0, 1e300, 1e-10, 0) // 1e310 time units: +Inf
		blocked := full.Forward(nil, in, 1, 100, 0)
		slow := NewBWTimeline().Forward(nil, in, 1e-10, 100, 0)
		done <- [2][]Chunk{blocked, slow}
	}()
	select {
	case got := <-done:
		blocked, slow := got[0], got[1]
		if end := blocked[len(blocked)-1].End; !math.IsInf(end, 1) {
			t.Errorf("behind a full ledger: chunks %+v end at %v, want +Inf", blocked, end)
		}
		if len(slow) != 1 || slow[0].Start != 1 || math.Abs(slow[0].End-(1+1e10)) > 1e-6 ||
			math.Abs(slow[0].Volume-1) > 1e-9 {
			t.Errorf("at a cap of 1e-12: chunks %+v, want one of volume 1 over [1, 1+1e10]", slow)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Forward waited forever for bandwidth past +Inf")
	}
}

func TestBWSnapshotRestore(t *testing.T) {
	bw := NewBWTimeline()
	bw.Alloc(o(0, 0), 0, 5, 1, 0)
	var snap BWTimeline
	snap.CopyFrom(bw)
	bw.Alloc(o(1, 0), 0, 5, 1, 0)
	segsAfter := bw.NumSegments()
	bw.CopyFrom(&snap)
	if bw.NumSegments() == segsAfter {
		t.Fatalf("restore did not shrink segments")
	}
	// The restored timeline must behave like the original: edge 1 can
	// again start at 5 (after edge 0's full-bandwidth transfer).
	cs := bw.Alloc(o(2, 0), 0, 5, 1, 0)
	if cs[0].Start != 5 {
		t.Fatalf("after restore start=%v, want 5", cs[0].Start)
	}
}

// peakLoad sums the rates of cs at every instant, the way the schedule
// verifier's link capacity check does, and returns the highest sum
// that lasts longer than Eps: float noise between one chunk's end and
// another's start is not a conflict.
func peakLoad(cs []Chunk) float64 {
	type event struct{ t, rate float64 }
	evs := make([]event, 0, 2*len(cs))
	for _, c := range cs {
		evs = append(evs, event{c.Start, c.Rate}, event{c.End, -c.Rate})
	}
	sort.Slice(evs, func(i, j int) bool {
		// edgelint:ignore floateq — exact sort key; ties release first.
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].rate < evs[j].rate
	})
	load, peak := 0.0, 0.0
	for i, ev := range evs {
		load += ev.rate
		if i+1 < len(evs) && evs[i+1].t-ev.t > Eps {
			peak = math.Max(peak, load)
		}
	}
	return peak
}

// Property: any interleaving of capped allocations moves exactly the
// requested volume within each cap, keeps every segment valid, and
// never books the link beyond its capacity: the rates of all the
// chunks returned sum to at most 1 at every instant. reserve clamps a
// segment's availability at 0, so only the chunks show an over-booking.
func TestAllocCapacityProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		bw := NewBWTimeline()
		count := int(n%20) + 1
		var all []Chunk
		for i := 0; i < count; i++ {
			es := r.Float64() * 40
			vol := r.Float64()*12 + 0.01
			speed := r.Float64()*9 + 1
			cap := 0.0
			if r.Intn(2) == 0 {
				cap = r.Float64()*0.9 + 0.05
			}
			cs := bw.Alloc(o(i, 0), es, vol, speed, cap)
			if math.Abs(totalVolume(cs)-vol) > 1e-6*vol+1e-9 {
				return false
			}
			for _, c := range cs {
				if c.Start < es-Eps {
					return false
				}
				if cap > 0 && c.Rate > cap+Eps {
					return false
				}
			}
			all = append(all, cs...)
		}
		return peakLoad(all) <= 1+Eps && bw.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: chunks returned by Alloc are time-ordered and
// non-overlapping.
func TestAllocChunkOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bw := NewBWTimeline()
		for i := 0; i < 10; i++ {
			cs := bw.Alloc(o(i, 0), r.Float64()*20, r.Float64()*10+0.1, 1, r.Float64()*0.5+0.25)
			prevEnd := math.Inf(-1)
			for _, c := range cs {
				if c.Start < prevEnd-Eps || c.End < c.Start-Eps {
					return false
				}
				prevEnd = c.End
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentsExposure pins that each exposed segment's availability
// is 1 less the rates of the chunks booked over it.
func TestSegmentsExposure(t *testing.T) {
	bw := NewBWTimeline()
	cs := bw.Alloc(o(0, 0), 0, 10, 1, 0.5)
	cs = append(cs, bw.Alloc(o(1, 0), 0, 5, 1, 0.25)...)
	segs := bw.Segments()
	if len(segs) == 0 {
		t.Fatal("no segments exposed")
	}
	for _, s := range segs {
		if s.End < s.Start {
			t.Fatalf("inverted segment %+v", s)
		}
		booked, mid := 0.0, (s.Start+s.End)/2
		for _, c := range cs {
			if c.Start < mid && mid < c.End {
				booked += c.Rate
			}
		}
		if math.Abs((1-booked)-s.Avail) > 1e-9 {
			t.Fatalf("segment %+v: chunks book %v of the link", s, booked)
		}
	}
}

func TestForwardZeroVolumeChunks(t *testing.T) {
	down := NewBWTimeline()
	// All-empty input yields a single empty output chunk.
	out := down.Forward(nil, []Chunk{{Start: 5, End: 5}}, 1, 1, 0)
	if len(out) != 1 || out[0].Volume != 0 {
		t.Fatalf("out %+v", out)
	}
	// Entirely empty input also yields a placeholder.
	out = down.Forward(nil, nil, 1, 1, 0)
	if len(out) != 1 {
		t.Fatalf("out %+v", out)
	}
}

func TestForwardWithHopDelayShiftsStart(t *testing.T) {
	up := NewBWTimeline()
	down := NewBWTimeline()
	in := up.Alloc(o(0, 0), 0, 10, 1, 0) // [0,10]
	out := down.Forward(nil, in, 1, 1, 3)
	if out[0].Start < 3-Eps {
		t.Fatalf("hop delay ignored: start %v", out[0].Start)
	}
}

func TestBWValidateCatchesCorruption(t *testing.T) {
	bw := NewBWTimeline()
	bw.Alloc(o(0, 0), 0, 10, 1, 0.5)
	if err := bw.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the books directly.
	s0 := &bw.st.slabs[0].items[0]
	for _, bad := range []float64{-0.25, 1.5, math.NaN()} {
		s0.avail = bad
		if err := bw.Validate(); err == nil {
			t.Fatalf("avail %v accepted", bad)
		}
	}
	s0.avail = 0.5
	end := s0.end
	s0.end = s0.start - 1
	if err := bw.Validate(); err == nil {
		t.Fatal("inverted segment accepted")
	}
	s0.end = end
	// Corrupting a slab's hop flag without a refresh must be caught too.
	bw.st.slabs[0].sum = !bw.st.slabs[0].sum
	if err := bw.Validate(); err == nil {
		t.Fatal("stale hop flag accepted")
	}
	bw.st.refresh(0, hoppable)
	if err := bw.Validate(); err != nil {
		t.Fatalf("repaired ledger rejected: %v", err)
	}
}

// TestSkipSaturatedHopsAtLargeMagnitudes guards the slab hop against
// switching off again: on a fully saturated, gap-free ledger of 10^4
// segments, every slab must carry the hop flag at every time magnitude,
// so skipSaturated crosses the ledger slab by slab and lands on its
// exact end. (A float-safety margin scaled by the magnitude once
// disabled the hop beyond ~2.5e5.)
func TestSkipSaturatedHopsAtLargeMagnitudes(t *testing.T) {
	for _, mag := range []float64{1e6, 1e7, 1e8} {
		bw := NewBWTimeline()
		cur := mag
		for i := 0; bw.NumSegments() < 10000; i++ {
			cs := bw.Alloc(o(i, 0), cur, 1+float64(i%3), 1, 0)
			cur = cs[len(cs)-1].End
		}
		slabs := bw.st.slabs
		for k := range slabs {
			if !slabs[k].sum {
				t.Fatalf("mag %g: slab %d of %d (%d segments) is not hoppable",
					mag, k, len(slabs), len(slabs[k].items))
			}
		}
		c, end := bw.skipSaturated(cursor{}, mag)
		// edgelint:ignore floateq — the hop must land on the exact end.
		if c != bw.st.end() || end != cur {
			t.Fatalf("mag %g: skip stopped at slab %d/%d, time %v, want the ledger end %v",
				mag, c.s, len(slabs), end, cur)
		}
		s, f := bw.EstimateFinish(mag, 1, 1)
		// edgelint:ignore floateq — the estimate starts where the run ends.
		if s != cur || f != cur+1 {
			t.Fatalf("mag %g: EstimateFinish = (%v, %v), want (%v, %v)", mag, s, f, cur, cur+1)
		}
	}
}
