package linksched

import (
	"reflect"
	"testing"
)

// buildTimeline fills a timeline with a few non-adjacent slots and a
// slack column.
func buildTimeline() *Timeline {
	t := NewTimeline()
	t.InsertBasic(Owner{Edge: 1}, Request{ES: 0, PF: 0, Dur: 3})
	t.InsertBasic(Owner{Edge: 2}, Request{ES: 5, PF: 6, Dur: 2})
	t.InsertBasic(Owner{Edge: 3}, Request{ES: 1, PF: 1, Dur: 1})
	s := t.Slots()[1]
	t.SetSlack(s.Owner, s.Start, 2)
	return t
}

// timelineState is a timeline's full observable state.
type timelineState struct {
	Slots []Slot
	Slack []float64
}

// timelineBytes snapshots a timeline's full observable state.
func timelineBytes(t *Timeline) timelineState {
	return timelineState{
		Slots: append([]Slot(nil), t.Slots()...),
		Slack: append([]float64(nil), t.Slack()...),
	}
}

// TestTimelineCloneIndependence mutates a clone and asserts the
// original is byte-identical: a Clone that shares a backing slice fails
// here.
func TestTimelineCloneIndependence(t *testing.T) {
	orig := buildTimeline()
	before := timelineBytes(orig)

	c := orig.Clone()
	c.InsertBasic(Owner{Edge: 9}, Request{ES: 0, PF: 0, Dur: 10})
	storeSlackColumn(c, func(Owner) float64 { return 100 })
	c.InsertOptimal(Owner{Edge: 10}, Request{ES: 0, PF: 0, Dur: 1}, nil)
	s := c.Slots()[0]
	c.SetSlack(s.Owner, s.Start, 7)

	if got := timelineBytes(orig); !reflect.DeepEqual(before, got) {
		t.Fatalf("mutating a Timeline clone changed the original:\nbefore %v\nafter  %v", before, got)
	}

	// And the other direction: mutating the original must not reach
	// the clone.
	cb := timelineBytes(c)
	orig.InsertBasic(Owner{Edge: 11}, Request{ES: 20, PF: 20, Dur: 5})
	if got := timelineBytes(c); !reflect.DeepEqual(cb, got) {
		t.Fatalf("mutating the original Timeline changed its clone")
	}
}

// buildBWTimeline reserves overlapping bandwidth shares.
func buildBWTimeline() *BWTimeline {
	t := NewBWTimeline()
	t.Alloc(Owner{Edge: 1}, 0, 30, 1, 0.5)
	t.Alloc(Owner{Edge: 2}, 5, 20, 1, 0.75)
	return t
}

// bwBytes snapshots the full observable segment state.
func bwBytes(t *BWTimeline) []SegmentInfo {
	return t.Segments()
}

// TestBWTimelineCloneIndependence mutates a BWTimeline clone and
// asserts the original is byte-identical.
func TestBWTimelineCloneIndependence(t *testing.T) {
	orig := buildBWTimeline()
	before := bwBytes(orig)

	c := orig.Clone()
	c.Alloc(Owner{Edge: 9}, 0, 50, 1, 1)
	c.Forward(Owner{Edge: 10}, []Chunk{{Start: 0, End: 4, Rate: 0.25}}, 1, 1, 0.5)

	if got := bwBytes(orig); !reflect.DeepEqual(before, got) {
		t.Fatalf("mutating a BWTimeline clone changed the original:\nbefore %v\nafter  %v", before, got)
	}

	cb := bwBytes(c)
	orig.Alloc(Owner{Edge: 11}, 0, 10, 1, 1)
	if got := bwBytes(c); !reflect.DeepEqual(cb, got) {
		t.Fatalf("mutating the original BWTimeline changed its clone")
	}
}
