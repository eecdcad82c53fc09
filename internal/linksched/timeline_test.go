package linksched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func o(edge, leg int) Owner { return Owner{Edge: edge, Leg: leg} }

func TestProbeBasicEmpty(t *testing.T) {
	tl := NewTimeline()
	start, finish := tl.ProbeBasic(Request{ES: 5, PF: 5, Dur: 3})
	if start != 5 || finish != 8 {
		t.Fatalf("got [%v,%v], want [5,8]", start, finish)
	}
}

func TestProbeBasicLowerBoundFromPF(t *testing.T) {
	// PF=10, Dur=2 → slot must end at ≥10, so start ≥ 8 even though ES=0.
	tl := NewTimeline()
	start, finish := tl.ProbeBasic(Request{ES: 0, PF: 10, Dur: 2})
	if start != 8 || finish != 10 {
		t.Fatalf("got [%v,%v], want [8,10]", start, finish)
	}
}

func TestProbeBasicZeroDur(t *testing.T) {
	tl := NewTimeline()
	tl.InsertBasic(o(0, 0), Request{ES: 0, PF: 0, Dur: 100})
	start, finish := tl.ProbeBasic(Request{ES: 3, PF: 7, Dur: 0})
	if start != 7 || finish != 7 {
		t.Fatalf("zero-duration request got [%v,%v], want [7,7]", start, finish)
	}
	if tl.Len() != 1 {
		t.Fatalf("probe must not mutate")
	}
}

func TestInsertBasicFindsGap(t *testing.T) {
	tl := NewTimeline()
	tl.InsertBasic(o(0, 0), Request{ES: 0, PF: 0, Dur: 4})   // [0,4]
	tl.InsertBasic(o(1, 0), Request{ES: 10, PF: 10, Dur: 4}) // [10,14]
	// Dur 5 fits in the gap [4,10].
	start, finish := tl.InsertBasic(o(2, 0), Request{ES: 0, PF: 0, Dur: 5})
	if start != 4 || finish != 9 {
		t.Fatalf("got [%v,%v], want [4,9]", start, finish)
	}
	// Dur 7 does not fit in any gap; must append at 14.
	start, finish = tl.InsertBasic(o(3, 0), Request{ES: 0, PF: 0, Dur: 7})
	if start != 14 || finish != 21 {
		t.Fatalf("got [%v,%v], want [14,21]", start, finish)
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBasicRespectsES(t *testing.T) {
	tl := NewTimeline()
	tl.InsertBasic(o(0, 0), Request{ES: 0, PF: 0, Dur: 2}) // [0,2]
	// Gap before slot ends at 0; ES=1 prevents using [0,?]... gap [2,inf).
	start, _ := tl.InsertBasic(o(1, 0), Request{ES: 1, PF: 1, Dur: 3})
	if start != 2 {
		t.Fatalf("start=%v, want 2", start)
	}
}

func TestInsertBasicTightGapBoundary(t *testing.T) {
	tl := NewTimeline()
	tl.InsertBasic(o(0, 0), Request{ES: 0, PF: 0, Dur: 4})   // [0,4]
	tl.InsertBasic(o(1, 0), Request{ES: 0, PF: 0, Dur: 6})   // [4,10]
	tl.InsertBasic(o(2, 0), Request{ES: 12, PF: 12, Dur: 4}) // [12,16]
	// Exactly fills [10,12].
	start, finish := tl.InsertBasic(o(3, 0), Request{ES: 0, PF: 0, Dur: 2})
	if start != 10 || finish != 12 {
		t.Fatalf("got [%v,%v], want [10,12]", start, finish)
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalEqualsBasicWithZeroSlack(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a, b := NewTimeline(), NewTimeline()
		for i := 0; i < 10; i++ {
			req := Request{
				ES:  float64(r.Intn(50)),
				Dur: 1 + float64(r.Intn(10)),
			}
			req.PF = req.ES + float64(r.Intn(5))
			s1, f1 := a.InsertBasic(o(i, 0), req)
			s2, f2, moved := b.InsertOptimal(o(i, 0), req, nil)
			if len(moved) != 0 {
				t.Fatalf("trial %d: zero slack must not move slots", trial)
			}
			if s1 != s2 || f1 != f2 {
				t.Fatalf("trial %d insert %d: basic [%v,%v] != optimal [%v,%v]", trial, i, s1, f1, s2, f2)
			}
		}
	}
}

func TestOptimalDefersSlotToOpenGap(t *testing.T) {
	tl := NewTimeline()
	// Slot A [0,4] with slack 5 (pretend its next-link placement allows it).
	tl.InsertBasic(o(0, 0), Request{ES: 0, PF: 0, Dur: 4})
	slack := func(ow Owner) float64 {
		if ow.Edge == 0 {
			return 5
		}
		return 0
	}
	storeSlackColumn(tl, slack)
	// New edge needs [0,3] — basic would give [4,7], optimal defers A.
	start, finish, moved := tl.InsertOptimal(o(1, 0), Request{ES: 0, PF: 0, Dur: 3}, nil)
	if start != 0 || finish != 3 {
		t.Fatalf("got [%v,%v], want [0,3]", start, finish)
	}
	if len(moved) != 1 || moved[0].Owner.Edge != 0 {
		t.Fatalf("expected slot A moved, got %+v", moved)
	}
	if moved[0].Start != 3 || moved[0].End != 7 {
		t.Fatalf("slot A moved to [%v,%v], want [3,7]", moved[0].Start, moved[0].End)
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalRespectsSlackLimit(t *testing.T) {
	tl := NewTimeline()
	tl.InsertBasic(o(0, 0), Request{ES: 0, PF: 0, Dur: 4}) // [0,4]
	slack := func(ow Owner) float64 { return 2 }           // can move to at most [2,6]
	// Dur 3 before the slot requires deferring by 3 > 2: infeasible,
	// must append at 4.
	storeSlackColumn(tl, slack)
	start, finish, moved := tl.InsertOptimal(o(1, 0), Request{ES: 0, PF: 0, Dur: 3}, nil)
	if start != 4 || finish != 7 || len(moved) != 0 {
		t.Fatalf("got [%v,%v] moved=%v, want [4,7] no moves", start, finish, moved)
	}
}

func TestOptimalChainedDeferral(t *testing.T) {
	// Slots [0,2], [2,4], each with slack 3. Gap structure: none.
	// Inserting Dur 2 at time 0 pushes both right by 2 ≤ slack chain.
	tl := NewTimeline()
	tl.InsertBasic(o(0, 0), Request{ES: 0, PF: 0, Dur: 2})
	tl.InsertBasic(o(1, 0), Request{ES: 0, PF: 0, Dur: 2})
	storeSlackColumn(tl, func(Owner) float64 { return 3 })
	start, finish, moved := tl.InsertOptimal(o(2, 0), Request{ES: 0, PF: 0, Dur: 2}, nil)
	if start != 0 || finish != 2 {
		t.Fatalf("got [%v,%v], want [0,2]", start, finish)
	}
	if len(moved) != 2 {
		t.Fatalf("want 2 moved slots, got %d", len(moved))
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	// accum for slot 0 = min(3, accum1 + gap0) = min(3, 3+0) = 3 ≥ 2 ✓
	slots := tl.Slots()
	if slots[0].Start != 0 || slots[1].Start != 2 || slots[2].Start != 4 {
		t.Fatalf("unexpected layout %+v", slots)
	}
}

func TestOptimalAccumLimitedByDownstreamSlack(t *testing.T) {
	// Slot A [0,2] slack 10, slot B [2,4] slack 1: pushing A right
	// requires pushing B; accum for A = min(10, 1 + gap 0) = 1, so a
	// Dur-2 insertion before A is infeasible, Dur-1 is feasible.
	tl := NewTimeline()
	tl.InsertBasic(o(0, 0), Request{ES: 0, PF: 0, Dur: 2})
	tl.InsertBasic(o(1, 0), Request{ES: 0, PF: 0, Dur: 2})
	slack := func(ow Owner) float64 {
		if ow.Edge == 0 {
			return 10
		}
		return 1
	}
	start, _, _ := tl.ProbeOptimal(Request{ES: 0, PF: 0, Dur: 2}, slack)
	if start != 4 {
		t.Fatalf("Dur 2: start=%v, want 4 (append)", start)
	}
	storeSlackColumn(tl, slack)
	start, finish, moved := tl.InsertOptimal(o(2, 0), Request{ES: 0, PF: 0, Dur: 1}, nil)
	if start != 0 || finish != 1 {
		t.Fatalf("Dur 1: got [%v,%v], want [0,1]", start, finish)
	}
	if len(moved) != 2 {
		t.Fatalf("want both slots moved, got %+v", moved)
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalPrefersEarliestFeasiblePosition(t *testing.T) {
	// Slots [0,2] (no slack) and [10,12] (no slack): a Dur-2 edge with
	// ES 0 should land in the gap at [2,4], not append at 12.
	tl := NewTimeline()
	tl.InsertBasic(o(0, 0), Request{ES: 0, PF: 0, Dur: 2})
	tl.InsertBasic(o(1, 0), Request{ES: 10, PF: 10, Dur: 2})
	start, finish, moved := tl.InsertOptimal(o(2, 0), Request{ES: 0, PF: 0, Dur: 2}, nil)
	if start != 2 || finish != 4 || len(moved) != 0 {
		t.Fatalf("got [%v,%v] moved=%v, want [2,4]", start, finish, moved)
	}
}

func TestSnapshotRestore(t *testing.T) {
	tl := NewTimeline()
	tl.InsertBasic(o(0, 0), Request{ES: 0, PF: 0, Dur: 2})
	var snap Timeline
	snap.CopyFrom(tl)
	tl.InsertBasic(o(1, 0), Request{ES: 0, PF: 0, Dur: 2})
	tl.InsertOptimal(o(2, 0), Request{ES: 0, PF: 0, Dur: 1}, nil)
	if tl.Len() != 3 {
		t.Fatalf("len=%d, want 3", tl.Len())
	}
	tl.CopyFrom(&snap)
	if tl.Len() != 1 {
		t.Fatalf("after restore len=%d, want 1", tl.Len())
	}
	if s := tl.Slots()[0]; s.Start != 0 || s.End != 2 {
		t.Fatalf("restored slot %+v", s)
	}
}

func TestLastEnd(t *testing.T) {
	tl := NewTimeline()
	if tl.LastEnd() != 0 {
		t.Fatalf("empty LastEnd=%v", tl.LastEnd())
	}
	tl.InsertBasic(o(0, 0), Request{ES: 0, PF: 0, Dur: 2})
	tl.InsertBasic(o(1, 0), Request{ES: 6, PF: 6, Dur: 2})
	if got := tl.LastEnd(); got != 8 {
		t.Fatalf("LastEnd=%v, want 8", got)
	}
}

// Property: after any sequence of basic insertions, the timeline is
// valid and every slot honours its request's lower bound.
func TestBasicInsertionProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tl := NewTimeline()
		count := int(n%32) + 1
		for i := 0; i < count; i++ {
			es := r.Float64() * 100
			pf := es + r.Float64()*20
			dur := r.Float64()*10 + 0.01
			start, finish := tl.InsertBasic(o(i, 0), Request{ES: es, PF: pf, Dur: dur})
			if start < es-Eps || finish < pf-Eps {
				return false
			}
			if math.Abs((finish-start)-dur) > Eps {
				return false
			}
		}
		return tl.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: optimal insertion never yields a later start than basic
// insertion would on the same timeline state, and the timeline stays
// valid even with random (but honest) slack values.
func TestOptimalNeverWorseThanBasicProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tl := NewTimeline()
		slacks := map[Owner]float64{}
		slackFn := func(ow Owner) float64 { return slacks[ow] }
		count := int(n%24) + 2
		for i := 0; i < count; i++ {
			es := r.Float64() * 60
			pf := es + r.Float64()*10
			dur := r.Float64()*8 + 0.01
			req := Request{ES: es, PF: pf, Dur: dur}
			basicStart, _ := tl.ProbeBasic(req)
			optStart, optFinish, _ := tl.ProbeOptimal(req, slackFn)
			if optStart > basicStart+Eps {
				return false
			}
			if optStart < req.lowerBound()-Eps {
				return false
			}
			storeSlackColumn(tl, slackFn)
			start, finish, _ := tl.InsertOptimal(o(i, 0), req, nil)
			if start != optStart || finish != optFinish {
				return false
			}
			if tl.Validate() != nil {
				return false
			}
			// Give this slot a random future slack for later rounds.
			slacks[o(i, 0)] = r.Float64() * 5
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: slots shifted by optimal insertion move right by at most
// their slack.
func TestOptimalShiftWithinSlackProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tl := NewTimeline()
		slacks := map[Owner]float64{}
		slackFn := func(ow Owner) float64 { return slacks[ow] }
		starts := map[Owner]float64{}
		for i := 0; i < 12; i++ {
			es := r.Float64() * 30
			dur := r.Float64()*6 + 0.01
			req := Request{ES: es, PF: es, Dur: dur}
			storeSlackColumn(tl, slackFn)
			start, _, moved := tl.InsertOptimal(o(i, 0), req, nil)
			starts[o(i, 0)] = start
			for _, m := range moved {
				maxAllowed := starts[m.Owner] + slacks[m.Owner]
				if m.Start > maxAllowed+Eps {
					return false
				}
				starts[m.Owner] = m.Start
				slacks[m.Owner] = maxAllowed - m.Start // remaining slack
			}
			slacks[o(i, 0)] = r.Float64() * 4
		}
		return tl.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotDur(t *testing.T) {
	s := Slot{Start: 3, End: 8}
	if s.Dur() != 5 {
		t.Fatalf("dur %v", s.Dur())
	}
}

// TestTimelineValidateCatchesCorruption corrupts, one at a time, a
// slot and each part of a slab's summary on a timeline of several
// slabs, and moves a slot without refreshing its slab: Validate must
// reject every one.
func TestTimelineValidateCatchesCorruption(t *testing.T) {
	tl := NewTimeline()
	for i := 0; i < 5*slabBlock; i++ {
		start := float64(i%7)*1000 + float64(3*i) // interleaved: splits, not appends
		tl.InsertBasic(o(i, 0), Request{ES: start, PF: start, Dur: 1})
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tl.st.slabs) < 3 {
		t.Fatalf("%d slabs; the case needs several", len(tl.st.slabs))
	}
	sl := &tl.st.slabs[1]
	for _, c := range []struct {
		name    string
		corrupt func(s []slotEntry)
	}{
		{"overlap", func(s []slotEntry) { s[1].Start = s[0].Start + 0.5 }},
		{"inverted slot", func(s []slotEntry) { s[0].End = s[0].Start - 1 }},
		{"negative slot", func([]slotEntry) { tl.st.slabs[0].items[0].Start = -1 }},
		{"stale end", func([]slotEntry) { sl.sum.end += 1 }},
		{"stale gap", func([]slotEntry) { sl.sum.gap -= 1 }},
		{"stale accumulation", func(s []slotEntry) { s[2].accum += 1 }},
		{"slot moved without a refresh", func(s []slotEntry) {
			s[len(s)-1].Start += 0.25
			s[len(s)-1].End += 0.25
		}},
	} {
		var saved Timeline
		saved.CopyFrom(tl)
		c.corrupt(sl.items)
		if err := tl.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
		tl.CopyFrom(&saved)
		if err := tl.Validate(); err != nil {
			t.Fatalf("after %s, the restored timeline is rejected: %v", c.name, err)
		}
	}
}

// TestDeferralCascadeCrossesSlabs pins the summary refresh of a
// deferral cascade that runs past the end of its slab: the slots of
// the next slab move too, and their slab's summary must follow.
func TestDeferralCascadeCrossesSlabs(t *testing.T) {
	tl := NewTimeline()
	for i := 0; i < 3*slabBlock; i++ {
		start := float64(i) * 2 // back to back, no gap to absorb a shift
		tl.InsertBasic(o(i, 0), Request{ES: start, PF: start, Dur: 2})
	}
	storeSlackColumn(tl, func(Owner) float64 { return 10 })
	if len(tl.st.slabs) < 2 {
		t.Fatalf("%d slabs; the case needs two", len(tl.st.slabs))
	}
	first := len(tl.st.slabs[0].items)
	_, _, moved := tl.InsertOptimal(o(-1, 0), Request{ES: 0, PF: 0, Dur: 1}, nil)
	if len(moved) <= first {
		t.Fatalf("the cascade moved %d slots, want it past the first slab's %d", len(moved), first)
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSlabSkipKeepsTheEpsMargin pins the rounding margin of
// ProbeOptimal's slab skip. Three slabs of back-to-back unit slots,
// all of zero slack, have one idle gap, before the middle slab's head,
// Eps/2 short of the request: the fit test passes there within Eps,
// while the middle slab's room bound, that gap, is below the request.
// A skip without the margin would miss it and append instead.
func TestSlabSkipKeepsTheEpsMargin(t *testing.T) {
	tl := NewTimeline()
	cur := 0.0
	for i := 0; i < 6*slabBlock; i++ {
		if i == 2*slabBlock {
			cur += 2 - Eps/2
		}
		tl.insertAt(tl.st.end(), Slot{Start: cur, End: cur + 1, Owner: o(i, 0)})
		cur++
	}
	if len(tl.st.slabs) != 3 || tl.st.slabs[1].items[0].Owner != o(2*slabBlock, 0) {
		t.Fatalf("%d slabs, the middle one headed by %v; the case needs the gap at a slab head",
			len(tl.st.slabs), tl.st.slabs[1].items[0].Owner)
	}
	req := Request{Dur: 2}
	checkProbesAgree(t, tl, req, func(Owner) float64 { return 0 })
	if _, _, pos := tl.ProbeOptimal(req, nil); pos != 2*slabBlock {
		t.Fatalf("ProbeOptimal inserts at %d, want the gap at %d", pos, 2*slabBlock)
	}
}

// TestInsertOptimalIsAllocationFree pins InsertOptimal's noalloc
// contract at runtime: with the shift list handed back in and the slot
// and slack buffers grown once, a deferring insert allocates nothing.
// The measured op inserts into a warm copy and restores it, so every
// run shifts the same slots.
func TestInsertOptimalIsAllocationFree(t *testing.T) {
	tl := NewTimeline()
	for i := 0; i < 4*slabBlock; i++ {
		start := float64(i) * 10
		tl.InsertBasic(o(i, 0), Request{ES: start, PF: start, Dur: 8})
	}
	for i, s := range tl.Slots() {
		tl.SetSlack(s.Owner, s.Start, float64(i%4))
	}
	var snap Timeline
	snap.CopyFrom(tl)
	var moved []Shifted
	insert := func() {
		_, _, moved = tl.InsertOptimal(o(-1, 0), Request{ES: 1000, PF: 1000, Dur: 5}, moved)
		tl.CopyFrom(&snap)
	}
	insert() // warm up: grow the shift buffer and the slot capacity
	if len(moved) == 0 {
		t.Fatal("the insert deferred no slot; the case tests nothing")
	}
	if allocs := testing.AllocsPerRun(50, insert); allocs != 0 {
		t.Fatalf("deferring InsertOptimal allocates %v times, want 0", allocs)
	}
}

// TestSlackColumnFollowsInserts pins the stored slack's bookkeeping:
// every slot enters with 0, basic and optimal inserts alike, entries
// move with their slots on later inserts, writes clamp at 0, and a
// negative entry fails Validate.
func TestSlackColumnFollowsInserts(t *testing.T) {
	tl := NewTimeline()
	tl.InsertBasic(o(0, 0), Request{ES: 10, PF: 10, Dur: 5})
	tl.InsertOptimal(o(1, 0), Request{ES: 30, PF: 30, Dur: 5}, nil)
	if got := tl.Slack(); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("slack after two inserts = %v, want [0 0]", got)
	}
	tl.SetSlack(o(1, 0), 30, 7)
	tl.SetSlack(o(0, 0), 10, -3) // clamped like the walk clamps
	tl.InsertBasic(o(2, 0), Request{ES: 0, PF: 0, Dur: 5})
	if got := tl.Slack(); len(got) != 3 || got[0] != 0 || got[1] != 0 || got[2] != 7 {
		t.Fatalf("slack after a head insert = %v, want [0 0 7]", got)
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	tl.st.slabs[0].items[2].slack = -1
	if err := tl.Validate(); err == nil {
		t.Fatal("negative slack accepted")
	}
}
