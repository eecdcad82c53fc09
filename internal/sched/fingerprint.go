package sched

import (
	"fmt"

	"repro/internal/linksched"
	"repro/internal/network"
)

// The rollback oracle. A probe transaction is only correct if rollback
// restores the state bit-for-bit: a store whose prior value is not
// journaled corrupts the committed schedule silently. Every write goes
// through a journaling mutator (txn.go), and this oracle is the guard
// that each mutator's journal step covers its store. With
// Options.VerifyRollbackEvery set (1 for every transaction), begin
// captures a deep fingerprint of every journaled piece of state and
// rollback re-checks it, panicking with the offending field and ID
// instead of letting the corruption propagate into an unreproducible
// wrong schedule.

// fingerprint is a deep copy of everything rollback must restore. The
// edge store is captured column by column: comparing the raw meta and
// arena columns (including the arena lengths, which the rollback
// truncation must rewind exactly) catches both value corruption and
// span aliasing that a per-edge logical comparison could miss.
type fingerprint struct {
	tasks      []TaskPlacement
	procFinish []float64
	dups       []TaskPlacement
	meta       []edgeMeta
	routes     []network.LinkID
	legs       []legMeta
	chunks     []linksched.Chunk
	tl         [][]linksched.Slot
	tlSlack    [][]float64 // the links' optimal-insertion slack columns
	bw         [][]linksched.SegmentInfo
	ptl        [][]linksched.Slot
}

// captureFingerprint deep-copies the rollback-visible state.
//
// edgelint:coldpath — rollback oracle, runs only under VerifyRollbackEvery
func (s *state) captureFingerprint() *fingerprint {
	fp := &fingerprint{
		tasks:      append([]TaskPlacement(nil), s.tasks...),
		procFinish: append([]float64(nil), s.procFinish...),
		dups:       append([]TaskPlacement(nil), s.dups...),
		meta:       append([]edgeMeta(nil), s.edges.meta...),
		routes:     append([]network.LinkID(nil), s.edges.routes...),
		legs:       append([]legMeta(nil), s.edges.legs...),
		chunks:     append([]linksched.Chunk(nil), s.edges.chunks...),
	}
	if s.tl != nil {
		fp.tl = make([][]linksched.Slot, len(s.tl))
		fp.tlSlack = make([][]float64, len(s.tl))
		for i := range s.tl {
			fp.tl[i] = append([]linksched.Slot(nil), s.tl[i].Slots()...)
			fp.tlSlack[i] = append([]float64(nil), s.tl[i].Slack()...)
		}
	}
	if s.bw != nil {
		fp.bw = make([][]linksched.SegmentInfo, len(s.bw))
		for i := range s.bw {
			fp.bw[i] = s.bw[i].Segments()
		}
	}
	if s.ptl != nil {
		fp.ptl = make([][]linksched.Slot, len(s.ptl))
		for i := range s.ptl {
			fp.ptl[i] = append([]linksched.Slot(nil), s.ptl[i].Slots()...)
		}
	}
	return fp
}

// diff compares the fingerprint against the state's current contents
// and returns a description of the first difference, or "" when the
// state matches bit-for-bit. All comparisons are deliberately exact:
// rollback restores saved values, so even a 1-ulp drift is a bug.
//
// edgelint:coldpath — rollback oracle, runs only under VerifyRollbackEvery
func (fp *fingerprint) diff(s *state) string {
	for i, want := range fp.tasks {
		if s.tasks[i] != want {
			return fmt.Sprintf("task %d placement: %+v -> %+v", i, want, s.tasks[i])
		}
	}
	for i, want := range fp.procFinish {
		// edgelint:ignore floateq — oracle checks bit-identical restore
		if s.procFinish[i] != want {
			return fmt.Sprintf("processor %d clock: %v -> %v", i, want, s.procFinish[i])
		}
	}
	if len(s.dups) != len(fp.dups) {
		return fmt.Sprintf("duplicates count: %d -> %d", len(fp.dups), len(s.dups))
	}
	for i, want := range fp.dups {
		if s.dups[i] != want {
			return fmt.Sprintf("duplicate %d: %+v -> %+v", i, want, s.dups[i])
		}
	}
	if d := fp.diffEdgeStore(&s.edges); d != "" {
		return d
	}
	for i, want := range fp.tl {
		if d := diffSlots("link", i, want, s.tl[i].Slots()); d != "" {
			return d
		}
		if d := diffSlack(i, fp.tlSlack[i], s.tl[i].Slack()); d != "" {
			return d
		}
	}
	for i, want := range fp.bw {
		if d := diffSegments(i, want, s.bw[i].Segments()); d != "" {
			return d
		}
	}
	for i, want := range fp.ptl {
		if d := diffSlots("processor timeline", i, want, s.ptl[i].Slots()); d != "" {
			return d
		}
	}
	return ""
}

// diffEdgeStore compares the columnar edge store against the captured
// columns. Arena lengths are part of the contract: a rollback that
// fails to truncate a transaction's appends leaves a longer arena even
// when every committed span still reads back correctly.
func (fp *fingerprint) diffEdgeStore(st *edgeStore) string {
	for i, want := range fp.meta {
		if st.meta[i] != want {
			return fmt.Sprintf("edge %d meta: %+v -> %+v", i, want, st.meta[i])
		}
	}
	if len(st.routes) != len(fp.routes) {
		return fmt.Sprintf("edge route arena: %d entries -> %d", len(fp.routes), len(st.routes))
	}
	for i, want := range fp.routes {
		if st.routes[i] != want {
			return fmt.Sprintf("edge route arena entry %d: link %d -> link %d", i, want, st.routes[i])
		}
	}
	if len(st.legs) != len(fp.legs) {
		return fmt.Sprintf("edge leg arena: %d entries -> %d", len(fp.legs), len(st.legs))
	}
	for i, want := range fp.legs {
		if st.legs[i] != want {
			return fmt.Sprintf("edge leg arena entry %d: %+v -> %+v", i, want, st.legs[i])
		}
	}
	if len(st.chunks) != len(fp.chunks) {
		return fmt.Sprintf("edge chunk arena: %d entries -> %d", len(fp.chunks), len(st.chunks))
	}
	for i, want := range fp.chunks {
		if st.chunks[i] != want {
			return fmt.Sprintf("edge chunk arena entry %d: %+v -> %+v", i, want, st.chunks[i])
		}
	}
	return ""
}

// diffSlots compares one exclusive-slot timeline.
func diffSlots(kind string, id int, want, got []linksched.Slot) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s %d slot count: %d -> %d", kind, id, len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("%s %d slot %d: %+v -> %+v", kind, id, i, want[i], got[i])
		}
	}
	return ""
}

// diffSlack compares one link's slack column.
func diffSlack(id int, want, got []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("link %d slack column: %d entries -> %d", id, len(want), len(got))
	}
	for i := range want {
		// edgelint:ignore floateq — oracle checks bit-identical restore
		if got[i] != want[i] {
			return fmt.Sprintf("link %d slot %d slack: %v -> %v", id, i, want[i], got[i])
		}
	}
	return ""
}

// diffSegments compares one bandwidth timeline.
func diffSegments(id int, want, got []linksched.SegmentInfo) string {
	if len(got) != len(want) {
		return fmt.Sprintf("bandwidth link %d segment count: %d -> %d", id, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		// edgelint:ignore floateq — oracle checks bit-identical restore
		if g.Start != w.Start || g.End != w.End || g.Avail != w.Avail {
			return fmt.Sprintf("bandwidth link %d segment %d: [%v,%v] avail %v -> [%v,%v] avail %v",
				id, i, w.Start, w.End, w.Avail, g.Start, g.End, g.Avail)
		}
		if len(g.Uses) != len(w.Uses) {
			return fmt.Sprintf("bandwidth link %d segment %d use count: %d -> %d", id, i, len(w.Uses), len(g.Uses))
		}
		for u := range w.Uses {
			if g.Uses[u] != w.Uses[u] {
				return fmt.Sprintf("bandwidth link %d segment %d use %d: %+v -> %+v", id, i, u, w.Uses[u], g.Uses[u])
			}
		}
	}
	return ""
}
