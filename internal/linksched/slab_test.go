package linksched

import (
	"math/rand"
	"testing"
)

// maxFold is a test fold: the slab's largest entry.
func maxFold(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

// below orders a float store.
func below(e *float64, x float64) bool { return *e < x }

// fillStore inserts xs in order, each at its sorted position.
func fillStore(st *slabStore[float64, float64], xs ...float64) {
	for _, x := range xs {
		st.insert(st.search(below, x), x, maxFold, nil)
	}
}

// flatten lists a float store's entries in order.
func flatten(st *slabStore[float64, float64]) []float64 {
	var out []float64
	for k := range st.slabs {
		out = append(out, st.slabs[k].items...)
	}
	return out
}

// TestSlabStoreValidateCatchesCorruption tests the store's structural
// checks once for both ledgers: an empty slab, an over-full slab, a
// stale summary and an entry count out of step with the slabs.
func TestSlabStoreValidateCatchesCorruption(t *testing.T) {
	var st slabStore[float64, float64]
	for i := 0; i < 3*slabBlock; i++ {
		fillStore(&st, float64(i))
	}
	if err := st.validate(maxFold); err != nil {
		t.Fatal(err)
	}
	if len(st.slabs) < 2 {
		t.Fatalf("%d slabs; the case needs two", len(st.slabs))
	}
	for _, c := range []struct {
		name    string
		corrupt func(st *slabStore[float64, float64])
	}{
		{"empty slab", func(st *slabStore[float64, float64]) {
			st.n -= len(st.slabs[1].items)
			st.slabs[1].items = st.slabs[1].items[:0]
		}},
		{"over-full slab", func(st *slabStore[float64, float64]) {
			extra := make([]float64, 2*slabBlock+1)
			for i := range extra {
				extra[i] = float64(i)
			}
			st.n += len(extra) - len(st.slabs[0].items)
			st.slabs[0] = slab[float64, float64]{items: extra, sum: maxFold(extra)}
		}},
		{"stale summary", func(st *slabStore[float64, float64]) { st.slabs[0].sum++ }},
		{"count mismatch", func(st *slabStore[float64, float64]) { st.n++ }},
	} {
		var bad slabStore[float64, float64]
		bad.copyFrom(&st)
		c.corrupt(&bad)
		if err := bad.validate(maxFold); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestSlabSplitKeepsHalvesApart splits a full slab and refills its left
// half to the brim: the right half must keep its entries, so the split
// must have given it an array of its own.
func TestSlabSplitKeepsHalvesApart(t *testing.T) {
	var st slabStore[float64, float64]
	for i := 0; i < 2*slabBlock; i++ {
		fillStore(&st, float64(10*i))
	}
	fillStore(&st, -1) // splits the full slab
	if len(st.slabs) != 2 {
		t.Fatalf("%d slabs after inserting into a full one, want 2", len(st.slabs))
	}
	right := append([]float64(nil), st.slabs[1].items...)
	for len(st.slabs[0].items) < 2*slabBlock {
		fillStore(&st, float64(-2-len(st.slabs[0].items)))
	}
	if err := st.validate(maxFold); err != nil {
		t.Fatal(err)
	}
	for i, x := range st.slabs[1].items {
		if x != right[i] {
			t.Fatalf("filling the left half changed the right half's entry %d: %v, want %v", i, x, right[i])
		}
	}
	got := flatten(&st)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("entries out of order at %d: %v", i, got)
		}
	}
}

// TestResetKeepsSlabs pins that Reset keeps every slab array:
// refilling either reset ledger allocates nothing, the BWTimeline's
// bookings appending their chunks to a sized buffer.
func TestResetKeepsSlabs(t *testing.T) {
	const n = 10 * slabBlock
	order := rand.New(rand.NewSource(1)).Perm(n) // mid-ledger inserts: splits
	t.Run("Timeline", func(t *testing.T) {
		var tl Timeline
		refill := func() {
			tl.Reset()
			for _, i := range order {
				tl.InsertBasic(o(i, 0), Request{ES: float64(3 * i), PF: float64(3 * i), Dur: 2})
			}
		}
		refill()
		if len(tl.st.slabs) < 3 {
			t.Fatalf("%d slabs; the case needs several", len(tl.st.slabs))
		}
		if allocs := testing.AllocsPerRun(20, refill); allocs != 0 {
			t.Fatalf("refilling a reset Timeline allocates %v times, want 0", allocs)
		}
	})
	t.Run("BWTimeline", func(t *testing.T) {
		var bw BWTimeline
		var chunks []Chunk
		refill := func() {
			bw.Reset()
			chunks = chunks[:0]
			for _, i := range order {
				// One idle interval each, then a thin share over it and
				// its neighbours: splits and gap segments.
				chunks = bw.AppendAlloc(chunks, float64(3*i), 2, 1, 0)
				chunks = bw.AppendAlloc(chunks, float64(3*i)-1, 0.5, 1, 0.1)
			}
		}
		refill()
		if len(bw.st.slabs) < 3 {
			t.Fatalf("%d slabs; the case needs several", len(bw.st.slabs))
		}
		if allocs := testing.AllocsPerRun(20, refill); allocs != 0 {
			t.Fatalf("refilling a reset BWTimeline allocates %v times, want 0", allocs)
		}
	})
}

// TestSeekMatchesSearch pins slabStore.seek, the insertion kernels'
// positioning from where their walk ended: from every position of a
// store of several slabs, with ties of equal entries inside and across
// slab boundaries, the seek for every probe value lands exactly where
// search does.
func TestSeekMatchesSearch(t *testing.T) {
	var st slabStore[float64, float64]
	var xs []float64
	for i := 0; i < 5*slabBlock; i++ {
		xs = append(xs, float64(i/3)) // runs of three equal entries
	}
	fillStore(&st, xs...)
	if len(st.slabs) < 3 {
		t.Fatalf("%d slabs; the case spans too few", len(st.slabs))
	}
	var from []cursor
	for c := (cursor{}); c != st.end(); c = st.next(c) {
		from = append(from, c)
	}
	from = append(from, st.end())
	for x := -1.0; x <= xs[len(xs)-1]+1; x += 0.5 {
		want := st.search(below, x)
		for _, c := range from {
			if got := st.seek(c, below, x); got != want {
				t.Fatalf("seek(%v, %v) = %v, search = %v", c, x, got, want)
			}
		}
	}
}
