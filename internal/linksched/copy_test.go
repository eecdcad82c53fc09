package linksched

import (
	"reflect"
	"testing"
)

// ledgerKit drives one ledger type through TestLedgerCopyIndependence.
type ledgerKit[L any] struct {
	fill   func(l *L, n, edge0 int) // n bookings, interleaved so slabs split
	mutate func(l *L, edge int)     // writes reaching every slab
	state  func(l *L) any           // the full observable state
	slabs  func(l *L) int
	copy   func(dst, src *L)
}

// run copies a source of several slabs into a zero destination and
// into warm ones holding fewer and more slabs than the source, then
// mutates the copy and the original in turn: neither may see the
// other's writes.
func (k ledgerKit[L]) run(t *testing.T) {
	for _, d := range []struct {
		name string
		n    int // bookings in the destination before the copy
	}{{"zero", 0}, {"warm-smaller", slabBlock}, {"warm-larger", 12 * slabBlock}} {
		t.Run(d.name, func(t *testing.T) {
			var orig, c L
			k.fill(&orig, 6*slabBlock, 0)
			if n := k.slabs(&orig); n < 3 {
				t.Fatalf("the source spans %d slabs, want >= 3", n)
			}
			k.fill(&c, d.n, 10000)
			before := k.state(&orig)
			k.copy(&c, &orig)
			if got := k.state(&c); !reflect.DeepEqual(before, got) {
				t.Fatalf("CopyFrom did not reproduce the source:\ngot  %v\nwant %v", got, before)
			}
			k.mutate(&c, 20000)
			if got := k.state(&orig); !reflect.DeepEqual(before, got) {
				t.Fatalf("mutating the copy changed the original:\nbefore %v\nafter  %v", before, got)
			}
			cb := k.state(&c)
			k.mutate(&orig, 30000)
			if got := k.state(&c); !reflect.DeepEqual(cb, got) {
				t.Fatalf("mutating the original changed its copy")
			}
		})
	}
}

// interleaved is the start of booking i: seven runs of bookings three
// time units apart, so filling in index order inserts into the middle
// of the ledger and splits slabs.
func interleaved(i int) float64 { return float64(i%7)*1000 + float64(3*(i/7)) }

// timelineState is a timeline's full observable state.
type timelineState struct {
	Slots []Slot
	Slack []float64
}

// TestLedgerCopyIndependence pins that CopyFrom makes a deep copy on
// both ledgers, whatever slab arrays the destination held before: a
// copy that shares a slab array or a segment's use buffer with its
// source fails here.
func TestLedgerCopyIndependence(t *testing.T) {
	t.Run("Timeline", ledgerKit[Timeline]{
		fill: func(l *Timeline, n, edge0 int) {
			for i := 0; i < n; i++ {
				l.InsertBasic(o(edge0+i, 0), Request{ES: interleaved(i), PF: interleaved(i), Dur: 2})
			}
		},
		mutate: func(l *Timeline, edge int) {
			storeSlackColumn(l, func(ow Owner) float64 { return float64(edge + ow.Edge%5) })
			l.InsertOptimal(o(edge, 0), Request{ES: 0, PF: 0, Dur: 1}, nil)
			l.InsertBasic(o(edge+1, 0), Request{ES: 2500, PF: 2500, Dur: 5})
		},
		state: func(l *Timeline) any { return timelineState{Slots: l.Slots(), Slack: l.Slack()} },
		slabs: func(l *Timeline) int { return len(l.st.slabs) },
		copy:  (*Timeline).CopyFrom,
	}.run)
	t.Run("BWTimeline", ledgerKit[BWTimeline]{
		fill: func(l *BWTimeline, n, edge0 int) {
			for i := 0; i < n; i++ {
				l.Alloc(o(edge0+i, 0), interleaved(i), 2, 1, 0.5)
			}
		},
		mutate: func(l *BWTimeline, edge int) {
			// A thin share across the whole span appends to the use list
			// of every segment.
			l.Alloc(o(edge, 0), 0, 700, 1, 0.1)
			l.Forward(nil, o(edge+1, 0), []Chunk{{Start: 0, End: 4, Rate: 0.25, Volume: 1}}, 1, 1, 0.5)
		},
		state: func(l *BWTimeline) any { return l.Segments() },
		slabs: func(l *BWTimeline) int { return len(l.st.slabs) },
		copy:  (*BWTimeline).CopyFrom,
	}.run)
}
