package linksched

import (
	"reflect"
	"testing"
)

// TestCopyFromIndependence mirrors the Clone independence tests for
// the buffer-reusing copy path: CopyFrom into a warm (previously
// filled) destination must produce a deep copy, not an aliased one.
func TestCopyFromIndependence(t *testing.T) {
	orig := buildTimeline()
	before := timelineBytes(orig)

	var c Timeline
	c.InsertBasic(Owner{Edge: 50}, Request{ES: 0, PF: 0, Dur: 1}) // warm buffers
	c.CopyFrom(orig)
	if got := timelineBytes(&c); !reflect.DeepEqual(before, got) {
		t.Fatalf("CopyFrom did not reproduce the source: %v, want %v", got, before)
	}
	c.InsertBasic(Owner{Edge: 9}, Request{ES: 0, PF: 0, Dur: 10})
	storeSlackColumn(&c, func(Owner) float64 { return 100 })
	c.InsertOptimal(Owner{Edge: 10}, Request{ES: 0, PF: 0, Dur: 1}, nil)
	s := c.Slots()[0]
	c.SetSlack(s.Owner, s.Start, 7)
	if got := timelineBytes(orig); !reflect.DeepEqual(before, got) {
		t.Fatalf("mutating a CopyFrom copy changed the original:\nbefore %v\nafter  %v", before, got)
	}
}

// TestBWCopyFromIndependence is the bandwidth-ledger counterpart.
func TestBWCopyFromIndependence(t *testing.T) {
	orig := buildBWTimeline()
	before := bwBytes(orig)

	var c BWTimeline
	c.Alloc(Owner{Edge: 50}, 0, 5, 1, 1) // warm buffers
	c.CopyFrom(orig)
	if got := bwBytes(&c); !reflect.DeepEqual(before, got) {
		t.Fatalf("CopyFrom did not reproduce the source: %v, want %v", got, before)
	}
	c.Alloc(Owner{Edge: 9}, 0, 50, 1, 1)
	if got := bwBytes(orig); !reflect.DeepEqual(before, got) {
		t.Fatalf("mutating a BWTimeline CopyFrom copy changed the original")
	}
}

// TestCopyTimelinesColumn covers the arena-backed bulk path: a mixed
// column (empty, small, index-carrying timelines) copied into both a
// cold (nil) and a warm destination must be deep and shape-preserving,
// and carved windows must not bleed into their arena neighbors when
// one copy grows afterwards.
func TestCopyTimelinesColumn(t *testing.T) {
	src := make([]Timeline, 3)
	src[1].CopyFrom(buildTimeline())
	// Push src[2] past one block so it carries blkEnd/blkGap summaries.
	for i := 0; i < gapBlock+8; i++ {
		src[2].InsertBasic(Owner{Edge: i}, Request{ES: float64(2 * i), PF: float64(2 * i), Dur: 1})
	}
	want := []timelineState{{}, timelineBytes(&src[1]), timelineBytes(&src[2])}

	check := func(name string, dst []Timeline) {
		t.Helper()
		if len(dst) != len(src) {
			t.Fatalf("%s: %d timelines, want %d", name, len(dst), len(src))
		}
		for i := range dst {
			if got := timelineBytes(&dst[i]); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s: timeline %d = %v, want %v", name, i, got, want[i])
			}
			if err := dst[i].Validate(); err != nil {
				t.Fatalf("%s: timeline %d index invalid after copy: %v", name, i, err)
			}
		}
	}

	cold := CopyTimelines(nil, src)
	check("cold", cold)
	// Neighbor-bleed probe: grow the middle copy; its arena-carved
	// window must reallocate privately instead of overwriting slots of
	// the timeline carved after it.
	cold[1].InsertBasic(Owner{Edge: 77}, Request{ES: 1e6, PF: 1e6, Dur: 1})
	if got := timelineBytes(&cold[2]); !reflect.DeepEqual(got, want[2]) {
		t.Fatal("growing one carved timeline bled into its arena neighbor")
	}

	warm := CopyTimelines(cold, src)
	check("warm", warm)
	for i := range warm {
		warm[i].InsertBasic(Owner{Edge: 88}, Request{ES: 2e6, PF: 2e6, Dur: 1})
	}
	for i := range src {
		if got := timelineBytes(&src[i]); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("mutating a warm copy changed source timeline %d", i)
		}
	}

	if CopyTimelines(warm, nil) != nil {
		t.Fatal("nil source must yield a nil column")
	}
}

// TestCopyBWTimelinesColumn covers the bandwidth column bulk path.
func TestCopyBWTimelinesColumn(t *testing.T) {
	src := make([]BWTimeline, 2)
	src[1].CopyFrom(buildBWTimeline())
	want := [][]SegmentInfo{nil, bwBytes(&src[1])}

	dst := CopyBWTimelines(nil, src)
	for i := range dst {
		if got := bwBytes(&dst[i]); !reflect.DeepEqual(got, want[i]) && want[i] != nil {
			t.Fatalf("timeline %d = %v, want %v", i, got, want[i])
		}
	}
	dst[1].Alloc(Owner{Edge: 9}, 0, 50, 1, 1)
	if got := bwBytes(&src[1]); !reflect.DeepEqual(got, want[1]) {
		t.Fatal("mutating a bulk-copied BWTimeline changed the source")
	}
	if CopyBWTimelines(dst, nil) != nil {
		t.Fatal("nil source must yield a nil column")
	}
}
