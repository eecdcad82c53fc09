package linksched

import (
	"reflect"
	"testing"
)

// TestCopyFromIndependence mirrors the cold-copy independence tests in
// clone_test.go for the buffer-reusing path: CopyFrom into a warm
// (previously filled) destination must produce a deep copy, not an
// aliased one.
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
