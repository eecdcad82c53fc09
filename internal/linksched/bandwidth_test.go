package linksched

import (
	"math"
	"math/rand"
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
	out := down.Forward(nil, o(0, 1), in, 1, 1, 0)
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
	out := down.Forward(nil, o(0, 1), in, 1, 2, 0)
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
	out := down.Forward(nil, o(0, 1), in, 2, 1, 0)
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
		out := down.Forward(nil, o(0, 1), in, speedUp, speedDown, 0)
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

func TestBWSnapshotRestore(t *testing.T) {
	bw := NewBWTimeline()
	bw.Alloc(o(0, 0), 0, 5, 1, 0)
	snap := bw.Snapshot()
	bw.Alloc(o(1, 0), 0, 5, 1, 0)
	segsAfter := bw.NumSegments()
	bw.Restore(snap)
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

// Property: any interleaving of capped allocations keeps every segment
// within capacity and moves exactly the requested volume.
func TestAllocCapacityProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		bw := NewBWTimeline()
		count := int(n%20) + 1
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
		}
		return bw.Validate() == nil
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

func TestSegmentsExposure(t *testing.T) {
	bw := NewBWTimeline()
	bw.Alloc(o(0, 0), 0, 10, 1, 0.5)
	bw.Alloc(o(1, 0), 0, 5, 1, 0.25)
	segs := bw.Segments()
	if len(segs) == 0 {
		t.Fatal("no segments exposed")
	}
	for _, s := range segs {
		if s.End < s.Start {
			t.Fatalf("inverted segment %+v", s)
		}
		sum := 0.0
		for _, u := range s.Uses {
			if u.Rate <= 0 {
				t.Fatalf("non-positive share %+v", u)
			}
			sum += u.Rate
		}
		if math.Abs((1-sum)-s.Avail) > 1e-9 {
			t.Fatalf("segment books don't balance: %+v", s)
		}
	}
}

func TestForwardZeroVolumeChunks(t *testing.T) {
	down := NewBWTimeline()
	// All-empty input yields a single empty output chunk.
	out := down.Forward(nil, o(0, 1), []Chunk{{Start: 5, End: 5}}, 1, 1, 0)
	if len(out) != 1 || out[0].Volume != 0 {
		t.Fatalf("out %+v", out)
	}
	// Entirely empty input also yields a placeholder.
	out = down.Forward(nil, o(1, 1), nil, 1, 1, 0)
	if len(out) != 1 {
		t.Fatalf("out %+v", out)
	}
}

func TestForwardWithHopDelayShiftsStart(t *testing.T) {
	up := NewBWTimeline()
	down := NewBWTimeline()
	in := up.Alloc(o(0, 0), 0, 10, 1, 0) // [0,10]
	out := down.Forward(nil, o(0, 1), in, 1, 1, 3)
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
	s0.avail = 0.9 // inconsistent with the 0.5 share
	if err := bw.Validate(); err == nil {
		t.Fatal("inconsistent avail accepted")
	}
	s0.avail = 0.5
	u0 := &bw.usesOf(s0)[0]
	u0.rate = 1.5
	if err := bw.Validate(); err == nil {
		t.Fatal("share > 1 accepted")
	}
	u0.rate = 0.5
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

// TestUseArenaStaysBounded pins compactUses: a ledger that is never
// reset or restored, whose bookings keep copying long spans to the use
// arena's tail, holds arenas of a few times its live shares rather than
// of every share it ever copied.
func TestUseArenaStaysBounded(t *testing.T) {
	const segs, rounds = 100, 50
	var bw BWTimeline
	for i := 0; i < segs; i++ {
		bw.Alloc(o(i, 0), float64(2*i), 1, 1, 0.5) // one half-rate segment each
	}
	for r := 0; r < rounds; r++ {
		// A thin share across every segment copies each span once.
		bw.Alloc(o(segs+r, 0), 0, float64(2*segs)*0.005, 1, 0.005)
	}
	if err := bw.Validate(); err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, s := range bw.Segments() {
		live += len(s.Uses)
	}
	if live < segs*rounds {
		t.Fatalf("%d live shares; the case needs every round to cross every segment", live)
	}
	if held := cap(bw.uses) + cap(bw.spare); held > 10*live {
		t.Fatalf("use arenas hold %d entries for %d live shares", held, live)
	}
}
