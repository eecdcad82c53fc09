package linksched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/fptime"
)

// This file cross-checks the slab-pruned probe kernels (timeline.go)
// against the retained linear reference kernels (reference_test.go). The
// contract is bit-identity, not closeness: every comparison below is
// exact float equality, because the scheduler's determinism guarantees
// (Workers-1-vs-8, probe rollback) assume probes are pure functions of
// the slots regardless of how the search is organized.

// buildRandomTimeline grows a timeline to n slots with the given source of
// randomness, mixing basic and optimal insertions (optimal with a
// deterministic pseudo-slack so shifts occur).
func buildRandomTimeline(r *rand.Rand, n int) *Timeline {
	tl := NewTimeline()
	for i := 0; i < n; i++ {
		req := Request{
			ES:  r.Float64() * 1000,
			PF:  r.Float64() * 1000,
			Dur: r.Float64()*10 + 0.01,
		}
		owner := Owner{Edge: i, Leg: 0}
		if i%7 == 3 {
			storeSlackColumn(tl, func(o Owner) float64 { return float64(o.Edge%5) * 0.5 })
			tl.InsertOptimal(owner, req, nil)
		} else {
			tl.InsertBasic(owner, req)
		}
	}
	return tl
}

// storeSlackColumn writes slack's value for every slot into the
// timeline's slack column, so the stored-column probe sees the same
// deferrable times as the callback probe.
func storeSlackColumn(tl *Timeline, slack SlackFunc) {
	for _, s := range tl.Slots() {
		tl.SetSlack(s.Owner, s.Start, slack(s.Owner))
	}
}

// checkProbesAgree compares ProbeBasic with its reference, and the
// three optimal probes — over the stored slack column, over the
// callback, and the linear reference — with each other. The caller
// keeps the column in step with slack (storeSlackColumn).
func checkProbesAgree(t *testing.T, tl *Timeline, req Request, slack SlackFunc) {
	t.Helper()
	slots := tl.Slots()
	gs, gf := tl.ProbeBasic(req)
	ws, wf := probeBasicLinear(slots, req)
	// edgelint:ignore floateq — bit-identity contract, exact by design.
	if gs != ws || gf != wf {
		t.Fatalf("ProbeBasic(%+v) = (%v, %v), reference = (%v, %v) at %d slots",
			req, gs, gf, ws, wf, tl.Len())
	}
	rs, rf, rp := probeOptimalLinear(slots, req, slack)
	for _, probe := range []struct {
		name  string
		slack SlackFunc
	}{{"stored", nil}, {"callback", slack}} {
		os, of, op := tl.ProbeOptimal(req, probe.slack)
		// edgelint:ignore floateq — bit-identity contract, exact by design.
		if os != rs || of != rf || op != rp {
			t.Fatalf("ProbeOptimal(%+v) over the %s slack = (%v, %v, %d), reference = (%v, %v, %d) at %d slots",
				req, probe.name, os, of, op, rs, rf, rp, tl.Len())
		}
	}
}

// TestProbeDifferential drives the slab-pruned and reference kernels
// over randomized timelines across the scaling range — well below one
// slab, around the first split, up to hundreds of slabs — and demands
// exactly equal answers.
func TestProbeDifferential(t *testing.T) {
	slack := func(o Owner) float64 { return float64(o.Edge%4) * 1.5 }
	for _, n := range []int{0, 1, 7, slabBlock - 1, slabBlock, slabBlock + 1, 2 * slabBlock, 2*slabBlock + 1,
		6 * slabBlock, 333, 1000, 4000} {
		r := rand.New(rand.NewSource(int64(n) + 1))
		tl := buildRandomTimeline(r, n)
		storeSlackColumn(tl, slack)
		if err := tl.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n >= 6*slabBlock && len(tl.st.slabs) < 3 {
			t.Fatalf("n=%d: %d slabs; the case spans too few", n, len(tl.st.slabs))
		}
		for trial := 0; trial < 200; trial++ {
			req := Request{
				ES:  r.Float64() * 1200,
				PF:  r.Float64() * 1200,
				Dur: r.Float64()*20 + 0.001,
			}
			switch trial % 10 {
			case 7:
				req.Dur = r.Float64() * 1e-6 // sub-Eps durations
			case 8:
				req.ES, req.PF = 0, 0 // probe from the origin
			case 9:
				req.ES = 2000 // probe past every slot
			}
			checkProbesAgree(t, tl, req, slack)
		}
	}
}

// TestProbeDifferentialAdversarial aims randomized probes at the
// pruning margins: slot boundaries shifted by sub-Eps offsets, gaps
// exactly equal to the requested duration, and large magnitudes where
// rounding slack matters most — up to 1e8, where one ulp of a time
// exceeds Eps.
func TestProbeDifferentialAdversarial(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	slack := func(o Owner) float64 { return float64(o.Edge % 3) }
	for trial := 0; trial < 300; trial++ {
		tl := NewTimeline()
		base := math.Pow(10, float64(r.Intn(9))) // magnitudes 1 .. 1e8
		cur := 0.0
		n := slabBlock + r.Intn(6*slabBlock)
		for i := 0; i < n; i++ {
			gap := float64(r.Intn(3)) * base / 100
			if r.Intn(4) == 0 {
				gap += Eps * float64(r.Intn(5)) / 2 // sub-Eps jitter
			}
			durS := base/50 + float64(r.Intn(3))*base/200
			cur += gap
			tl.insertAt(tl.st.end(), Slot{Start: cur, End: cur + durS, Owner: Owner{Edge: i}})
			cur += durS
		}
		storeSlackColumn(tl, slack)
		if err := tl.Validate(); err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 30; probe++ {
			// Durations at and around the exact gap sizes used above.
			dur := base/100 + float64(r.Intn(5)-2)*Eps/2
			if dur <= 0 {
				dur = base / 100
			}
			req := Request{ES: r.Float64() * cur, PF: r.Float64() * cur, Dur: dur}
			checkProbesAgree(t, tl, req, slack)
		}
	}
}

// TestSnapshotRoundTripKeepsIndex pins that CopyFrom carries the slab
// summaries: after a copy out and back the timeline must validate and
// probes must agree with the reference on the restored slots.
func TestSnapshotRoundTripKeepsIndex(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tl := buildRandomTimeline(r, 500)
	var snap Timeline
	snap.CopyFrom(tl)
	for i := 0; i < 100; i++ {
		tl.InsertBasic(Owner{Edge: 1000 + i}, Request{ES: r.Float64() * 2000, Dur: 1})
	}
	tl.CopyFrom(&snap)
	if err := tl.Validate(); err != nil {
		t.Fatalf("after restore: %v", err)
	}
	var cl Timeline
	cl.CopyFrom(tl)
	cl.InsertBasic(Owner{Edge: 1}, Request{ES: 3000, Dur: 5})
	if err := tl.Validate(); err != nil {
		t.Fatalf("copy mutation corrupted original: %v", err)
	}
	if err := cl.Validate(); err != nil {
		t.Fatalf("copy: %v", err)
	}
	req := Request{ES: 123.4, PF: 130, Dur: 2.5}
	one := func(Owner) float64 { return 1 }
	storeSlackColumn(tl, one)
	checkProbesAgree(t, tl, req, one)
}

// FuzzTimelineDifferential fuzzes operation sequences against the
// reference kernels: every probe must match the linear scan exactly —
// the optimal one over the stored slack column and over the callback
// alike — every insertion must leave the slots of a flat reference list
// that inserts where a binary search over the starts finds (ties go
// before equal starts) and shifts as InsertOptimal's cascade does, and
// the slab store must stay consistent after every mutation. Set-slack
// operations give slots arbitrary deferrable times, mirrored in the map
// the callback reads; every mutation is checked by Validate, which
// recomputes the summaries and accumulations. A duration byte of 0
// asks for a zero-length transfer and 1 for a sub-Eps one.
func FuzzTimelineDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x01, 0xfe, 0x55, 0xaa})
	seed := make([]byte, 6*8*slabBlock) // enough inserts to split slabs twice
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	// A zero-length request, then sub-Eps slots from one bound, each
	// at the start of the idle tail after [4, 6.01] and its
	// predecessors.
	f.Add([]byte{0, 1, 0, 16, 32, 0, 0, 1, 0, 16, 0, 1, 0, 1, 0, 16, 1, 2, 1, 1, 0, 16, 1, 3, 0, 1, 0, 16, 1, 0})
	// Equal starts: sub-Eps slots from one bound before and after an
	// optimal insertion at that bound, then a slack and a re-probe.
	f.Add([]byte{0, 3, 0, 0, 1, 0, 2, 3, 0, 0, 1, 1, 1, 3, 0, 0, 1, 2, 2, 3, 0, 0, 64, 3, 4, 0, 0, 8, 0, 0, 0, 3, 0, 0, 1, 1})
	// packed appends n back-to-back slots of 1.9475 from time 0, and
	// slacks sets the slack of each slot i to vs[i%len(vs)] for i in
	// [from, to).
	packed := func(in []byte, n int) []byte {
		for i := 0; i < n; i++ {
			in = append(in, 0, 0, 0, 0, 31, 0)
		}
		return in
	}
	slacks := func(in []byte, from, to int, vs ...byte) []byte {
		for i := from; i < to; i++ {
			in = append(in, 4, byte(i), 0, 8*vs[i%len(vs)], 0, 0)
		}
		return in
	}
	// A deferral cascade from slot 56 across the first slab's end into
	// the idle gap after slot 65, with slots of slack 0 and 5 on both
	// sides of it, then a probe over the refolded accumulations.
	cascade := packed(nil, 2*slabBlock+2)
	cascade = append(cascade, 0, 35, 0, 0, 31, 0) // [140, 141.9475]
	for i := 0; i < 4; i++ {
		cascade = append(cascade, 0, 36, 0, 0, 31, 0) // from 144 on
	}
	cascade = slacks(cascade, 48, 56, 0, 5)
	cascade = slacks(cascade, 56, 2*slabBlock+2, 5)
	cascade = slacks(cascade, 2*slabBlock+2, 2*slabBlock+7, 0, 5)
	cascade = append(cascade, 2, 27, 68, 0, 31, 1, 2, 20, 0, 0, 31, 2)
	f.Add(cascade)
	// A slack set on the second slab's head of a packed queue whose
	// slots all hold 5 lowers the accumulation of every slot before
	// it, across the slab boundary, then raises it again.
	headward := slacks(packed(nil, 2*slabBlock+6), 0, 2*slabBlock+6, 5)
	headward = slacks(headward, 2*slabBlock, 2*slabBlock+1, 1)
	headward = append(headward, 2, 10, 0, 0, 31, 1)
	headward = slacks(headward, 2*slabBlock, 2*slabBlock+1, 5)
	f.Add(append(headward, 2, 20, 0, 0, 31, 2))
	// Basic inserts into the largest gap of a slab, which the O(1)
	// summary update cannot take out of the maximum, each followed by
	// a probe that reads the summary.
	f.Add([]byte{0, 0, 0, 0, 31, 0, 0, 2, 0, 0, 31, 0, 0, 10, 0, 0, 31, 0,
		0, 5, 0, 0, 31, 0, 2, 0, 0, 0, 200, 0, 0, 7, 0, 0, 31, 0, 1, 0, 0, 0, 100, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tl := NewTimeline()
		var ref []Slot
		slacks := map[Owner]float64{}
		slack := func(o Owner) float64 { return slacks[o] }
		insertRef := func(s Slot) {
			k := sort.Search(len(ref), func(k int) bool { return ref[k].Start >= s.Start })
			ref = slices.Insert(ref, k, s)
		}
		for i := 0; i+6 <= len(data); i += 6 {
			op := data[i] % 5
			es := float64(data[i+1])*4 + float64(data[i+2])/64
			pf := es + float64(data[i+3])/8
			dur := float64(data[i+4])/16 + 0.01
			switch data[i+4] {
			case 0:
				dur = 0
			case 1:
				dur = Eps / 4
			}
			req := Request{ES: es, PF: pf, Dur: dur}
			owner := Owner{Edge: i, Leg: int(data[i+5] % 4)}
			switch op {
			case 0, 1:
				gs, _ := tl.ProbeBasic(req)
				ws, _ := probeBasicLinear(tl.Slots(), req)
				// edgelint:ignore floateq — bit-identity contract.
				if gs != ws {
					t.Fatalf("op %d: ProbeBasic %v != reference %v", i, gs, ws)
				}
				if s, f := tl.InsertBasic(owner, req); dur > Eps {
					insertRef(Slot{Start: s, End: f, Owner: owner})
				}
			case 2:
				rs, _, rp := probeOptimalLinear(tl.Slots(), req, slack)
				cs, _, cp := tl.ProbeOptimal(req, slack)
				ss, _, sp := tl.ProbeOptimal(req, nil)
				// edgelint:ignore floateq — bit-identity contract.
				if cs != rs || cp != rp || ss != rs || sp != rp {
					t.Fatalf("op %d: ProbeOptimal callback (%v, %d), stored (%v, %d) != reference (%v, %d)",
						i, cs, cp, ss, sp, rs, rp)
				}
				s, f, _ := tl.InsertOptimal(owner, req, nil)
				if dur > Eps {
					need := f
					for k := rp; k < len(ref) && !fptime.GeqEps(ref[k].Start, need); k++ {
						delta := need - ref[k].Start
						ref[k].Start += delta
						ref[k].End += delta
						need = ref[k].End
					}
					insertRef(Slot{Start: s, End: f, Owner: owner})
				}
			case 3:
				var snap Timeline
				snap.CopyFrom(tl)
				tl.InsertBasic(owner, req)
				tl.CopyFrom(&snap)
			case 4:
				if tl.Len() == 0 {
					continue
				}
				s := tl.Slots()[int(data[i+1])%tl.Len()]
				v := float64(data[i+3]) / 8
				slacks[s.Owner] = v
				tl.SetSlack(s.Owner, s.Start, v)
			}
			if err := tl.Validate(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			// edgelint:ignore floateq — bit-identity contract.
			if got := tl.Slots(); !slices.Equal(got, ref) {
				t.Fatalf("op %d: slots %v, reference %v", i, got, ref)
			}
		}
	})
}

// --- bandwidth ledger differential ----------------------------------
//
// The slab-store BWTimeline (bandwidth.go) against the retained flat
// linear ledger (bwRef in reference_test.go). Same contract as
// above: every chunk, segment, and estimate must match the reference
// bit-for-bit, after every operation.

// bwPair drives the slab-store ledger and the linear reference through
// identical operations and compares the results and the full segment
// state exactly.
type bwPair struct {
	bw  *BWTimeline
	ref *bwRef
}

func newBWPair() *bwPair { return &bwPair{bw: NewBWTimeline(), ref: &bwRef{}} }

// checkState validates the slab-store ledger (including the exact hop
// flag recomputation) and compares its segments one-to-one with the
// reference ledger.
func (p *bwPair) checkState(t *testing.T, ctx string) {
	t.Helper()
	if err := p.bw.Validate(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	got := p.bw.Segments()
	if len(got) != len(p.ref.segs) || p.bw.NumSegments() != len(p.ref.segs) {
		t.Fatalf("%s: %d segments (NumSegments %d), reference %d",
			ctx, len(got), p.bw.NumSegments(), len(p.ref.segs))
	}
	for i, rs := range p.ref.segs {
		g := got[i]
		// edgelint:ignore floateq — bit-identity contract, exact by design.
		if g.Start != rs.start || g.End != rs.end || g.Avail != rs.avail {
			t.Fatalf("%s: segment %d = (%v, %v, avail %v), reference (%v, %v, avail %v)",
				ctx, i, g.Start, g.End, g.Avail, rs.start, rs.end, rs.avail)
		}
	}
}

// chunksEqual is the exact chunk-sequence comparison.
func chunksEqual(a, b []Chunk) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// edgelint:ignore floateq — bit-identity contract.
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mergeBait is a chunk that would merge with cs[0] if it came right
// before it in one chunk list: it ends where cs[0] starts, at its rate.
// The appending kernels get it as dst's last chunk and must leave it
// alone.
func mergeBait(cs []Chunk) []Chunk {
	if len(cs) == 0 {
		return []Chunk{{Start: -2, End: -1, Rate: 1, Volume: 1}}
	}
	return []Chunk{{Start: cs[0].Start - 1, End: cs[0].Start, Rate: cs[0].Rate, Volume: 1}}
}

// checkAppended requires got to be dst's chunks, untouched, followed by
// want.
func checkAppended(t *testing.T, op string, dst, got, want []Chunk, segs int) {
	t.Helper()
	if len(got) < len(dst) || !chunksEqual(got[:len(dst)], dst) || !chunksEqual(got[len(dst):], want) {
		t.Fatalf("%s appended to %+v = %+v, reference %+v at %d segments", op, dst, got, want, segs)
	}
}

func (p *bwPair) alloc(t *testing.T, es, vol, speed, cap float64) []Chunk {
	t.Helper()
	want := p.ref.alloc(es, vol, speed, cap)
	dst := mergeBait(want)
	got := p.bw.AppendAlloc(append([]Chunk(nil), dst...), es, vol, speed, cap)
	checkAppended(t, fmt.Sprintf("AppendAlloc(es=%v, vol=%v, speed=%v, cap=%v)", es, vol, speed, cap),
		dst, got, want, p.bw.NumSegments())
	p.checkState(t, "after Alloc")
	return got[len(dst):]
}

func (p *bwPair) forward(t *testing.T, in []Chunk, prevSpeed, speed, hop float64) []Chunk {
	t.Helper()
	want := p.ref.forward(in, prevSpeed, speed, hop)
	dst := mergeBait(want)
	got := p.bw.Forward(append([]Chunk(nil), dst...), in, prevSpeed, speed, hop)
	checkAppended(t, fmt.Sprintf("Forward(%d chunks, prevSpeed=%v, speed=%v, hop=%v)", len(in), prevSpeed, speed, hop),
		dst, got, want, p.bw.NumSegments())
	p.checkState(t, "after Forward")
	return got[len(dst):]
}

func (p *bwPair) estimate(t *testing.T, es, vol, speed float64) {
	t.Helper()
	gs, gf := p.bw.EstimateFinish(es, vol, speed)
	ws, wf := p.ref.estimateFinish(es, vol, speed)
	// edgelint:ignore floateq — bit-identity contract.
	if gs != ws || gf != wf {
		t.Fatalf("EstimateFinish(es=%v, vol=%v, speed=%v) = (%v, %v), reference (%v, %v) at %d segments",
			es, vol, speed, gs, gf, ws, wf, p.bw.NumSegments())
	}
}

// TestBWDifferential drives both ledgers over randomized mixed
// Alloc/Forward sequences across the scaling range — well below one
// slab up to many dozens — comparing chunks, segments, and estimates
// exactly after every operation.
func TestBWDifferential(t *testing.T) {
	for _, n := range []int{0, 1, 7, slabBlock - 1, slabBlock, 2*slabBlock + 1, 6 * slabBlock, 333, 1000} {
		r := rand.New(rand.NewSource(int64(n) + 1))
		p := newBWPair()
		span := float64(n)*2 + 10
		for i := 0; i < n; i++ {
			es := r.Float64() * span
			vol := r.Float64()*50 + 1
			switch i % 5 {
			case 0, 1, 2:
				p.alloc(t, es, vol, 2, 0)
			case 3:
				// Capped: partial rates fragment the ledger into
				// partially available segments.
				p.alloc(t, es, vol, 1, 0.25+r.Float64()*0.5)
			case 4:
				in := []Chunk{
					{Start: es, End: es + vol/2, Rate: 0.5, Volume: vol / 4},
					{Start: es + vol/2 + 1, End: es + vol/2 + 1 + vol/4, Rate: 1, Volume: vol / 2},
				}
				p.forward(t, in, 2, 1, r.Float64())
			}
		}
		// Probe-only estimates within, across, and beyond the ledger.
		for trial := 0; trial < 50; trial++ {
			p.estimate(t, r.Float64()*span*1.2, r.Float64()*100+0.1, 1+r.Float64())
		}
		p.estimate(t, 0, 1e-12, 1)   // sub-Eps volume
		p.estimate(t, span*10, 5, 1) // start past every segment
	}
}

// TestBWDifferentialAdversarial aims at the prune margins: long fully
// saturated runs whose boundaries carry sub-Eps jitter (so consecutive
// segment ends cluster within Eps of each other), across magnitudes
// from 1 to 1e8 — the slack threshold disables the slab hop above
// ~2.5e5, so both the engaged and the disabled regime are exercised.
func TestBWDifferentialAdversarial(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		base := math.Pow(10, float64(r.Intn(9))) // magnitudes 1 .. 1e8
		p := newBWPair()
		cur := 0.0
		n := 2*slabBlock + r.Intn(4*slabBlock)
		for i := 0; i < n; i++ {
			es := cur
			if r.Intn(3) == 0 {
				es += Eps * float64(r.Intn(5)) / 2 // sub-Eps jitter
			}
			if r.Intn(5) == 0 {
				es += base / 64 // a real idle gap
			}
			vol := base/8 + float64(r.Intn(4))*base/32
			// Uncapped at speed 1: rate 1, fully saturating [es, es+vol].
			cs := p.alloc(t, es, vol, 1, 0)
			cur = cs[len(cs)-1].End
		}
		// Estimates that must crawl or hop through the saturated runs.
		for probe := 0; probe < 40; probe++ {
			p.estimate(t, r.Float64()*cur, base/16, 1)
		}
		// Capped allocations skip the same runs on the mutating path.
		for i := 0; i < 10; i++ {
			p.alloc(t, r.Float64()*cur, base/32, 1, 0.5)
		}
	}
}

// TestBWSnapshotRoundTripKeepsIndex pins that CopyFrom carries the
// slab store and its hop flags: after a copy out and back the store
// must validate (summaries recomputed exactly) and further operations
// must still track the reference.
func TestBWSnapshotRoundTripKeepsIndex(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := newBWPair()
	const span = 500.0
	for i := 0; i < 200; i++ {
		p.alloc(t, r.Float64()*span, r.Float64()*20+1, 2, 0)
	}
	var snap BWTimeline
	snap.CopyFrom(p.bw)
	refSnap := slices.Clone(p.ref.segs)
	for i := 0; i < 50; i++ {
		p.bw.Alloc(Owner{Edge: 1000 + i}, r.Float64()*span, 5, 1, 0)
	}
	p.bw.CopyFrom(&snap)
	p.ref.segs = slices.Clone(refSnap)
	p.checkState(t, "after restore")
	// A copy's mutations must not leak back, and the copy itself must
	// keep a valid slab store.
	var cl BWTimeline
	cl.CopyFrom(p.bw)
	cl.Alloc(Owner{Edge: 1}, 2*span, 100, 1, 0)
	p.checkState(t, "after copy mutation")
	if err := cl.Validate(); err != nil {
		t.Fatalf("copy: %v", err)
	}
	// The restored original keeps tracking the reference.
	for i := 0; i < 50; i++ {
		p.alloc(t, r.Float64()*span, r.Float64()*10+1, 1, 0.5)
	}
}

// FuzzBWTimelineDifferential fuzzes Alloc/Forward/EstimateFinish/
// CopyFrom sequences against the linear reference: chunks,
// estimates, and the full segment state must match exactly and the
// slab store's invariants must hold after every operation.
func FuzzBWTimelineDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x01, 0xfe, 0x55, 0xaa})
	seed := make([]byte, 6*8*slabBlock) // enough bookings to split slabs twice
	for i := range seed {
		seed[i] = byte(i * 53)
	}
	f.Add(seed)
	// Multi-chunk forwards only, over a few overlapping windows at
	// partial rates: the ledger fragments past several slab splits
	// while every Forward carries its cursor from chunk to chunk.
	fwd := make([]byte, 0, 6*3*slabBlock)
	for j := 0; j < 3*slabBlock; j++ {
		fwd = append(fwd, 3, byte(j*5%64), byte(3+j%4), byte(8+j%23), byte(j%5), byte(j))
	}
	f.Add(fwd)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newBWPair()
		var snap BWTimeline
		var refSnap []refSeg
		haveSnap := false
		for i := 0; i+6 <= len(data); i += 6 {
			op := data[i] % 8
			es := float64(data[i+1])*4 + float64(data[i+2])/64
			vol := float64(data[i+3])/4 + 0.01
			cap := float64(data[i+4]%6) / 4 // 0 = uncapped .. 1
			if cap > 1 {
				cap = 1e-12 // at or below Eps: moves, books nothing
			}
			speed := 1 + float64(data[i+5]%4)
			switch op {
			case 0, 1, 2:
				p.alloc(t, es, vol, speed, cap)
			case 3:
				// 1 to 4 input chunks, spaced by up to 2 idle units.
				rate := 0.25 + cap/2
				in := make([]Chunk, 1+data[i+2]%4)
				for j := range in {
					st := es + float64(j)*(vol+float64(data[i+5]%3))
					in[j] = Chunk{Start: st, End: st + vol, Rate: rate, Volume: vol * rate * speed}
				}
				p.forward(t, in, speed, 1, float64(data[i+4]%3))
			case 4:
				p.estimate(t, es, vol, speed)
			case 5:
				snap.CopyFrom(p.bw)
				refSnap = slices.Clone(p.ref.segs)
				haveSnap = true
			default:
				if haveSnap {
					p.bw.CopyFrom(&snap)
					p.ref.segs = slices.Clone(refSnap)
				} else {
					p.alloc(t, es, vol, speed, 0)
				}
			}
			if i%30 == 0 || op >= 5 {
				p.checkState(t, "post-op")
			}
		}
		p.checkState(t, "final")
	})
}
