package sched

import (
	"repro/internal/dag"
	"repro/internal/linksched"
	"repro/internal/network"
)

// txn journals every piece of scheduler state the current tentative
// placement touches, so that BA's earliest-finish-time processor probe
// can be rolled back cheaply: only the timelines, task/edge records and
// processor clocks actually modified are saved (copy-on-write), not the
// whole network. The journals are slice-backed (see journal) and their
// timeline copies' slab arrays are recycled across transactions, so a
// steady-state probe journals without allocating.
type txn struct {
	taskOld  journal[TaskPlacement]
	procOld  journal[float64]
	edgeOld  journal[edgeMeta]
	tlSnaps  journal[linksched.Timeline]
	bwSnaps  journal[linksched.BWTimeline]
	ptlSnaps journal[linksched.Timeline]
	// dupsLen is the duplicates count before the transaction's first
	// addDup, or -1 if it appended none; rollback truncates to it
	// (duplicates are append-only).
	dupsLen int
	// marks are the edge-store arena lengths at transaction start;
	// rollback truncates the arenas to them, discarding every
	// route/leg/chunk entry the transaction appended. Committed records
	// all live below the marks, so restoring the journaled edgeMeta
	// values plus this truncation restores the store exactly.
	marks arenaMarks
}

// begin opens a transaction. Transactions do not nest. The journal
// arrays are owned by the state and reused across transactions, so a
// probe transaction allocates nothing in steady state.
func (s *state) begin() {
	if s.tx != nil {
		panic("sched: nested transaction")
	}
	if s.txFree == nil {
		s.txFree = s.newTxn()
	}
	s.tx = s.txFree
	s.tx.dupsLen = -1
	s.tx.marks = s.edges.marks()
}

// newTxn builds the state's reusable transaction journal. Runs once per
// state: every later begin reuses the journal via s.txFree, and reset
// resizes it whenever the state is rebound.
func (s *state) newTxn() *txn {
	tx := &txn{}
	s.sizeJournals(tx)
	return tx
}

// sizeJournals sizes every journal of tx to the state's entity counts.
func (s *state) sizeJournals(tx *txn) {
	tx.taskOld.resize(len(s.tasks))
	tx.procOld.resize(len(s.procFinish))
	tx.edgeOld.resize(len(s.edges.meta))
	tx.tlSnaps.resize(len(s.tl))
	tx.bwSnaps.resize(len(s.bw))
	tx.ptlSnaps.resize(len(s.ptl))
}

// rollback restores everything the transaction touched and closes it.
// The journals are walked with plain loops rather than each callbacks:
// a closure capturing s would be a fresh heap allocation on every
// rollback, and rollback runs once per EFT probe.
func (s *state) rollback() {
	tx := s.tx
	if tx == nil {
		return
	}
	for _, id := range tx.taskOld.ids {
		s.tasks[id] = tx.taskOld.vals[id]
	}
	for _, id := range tx.procOld.ids {
		s.procFinish[id] = tx.procOld.vals[id]
	}
	for _, id := range tx.edgeOld.ids {
		s.edges.meta[id] = tx.edgeOld.vals[id]
	}
	s.edges.truncate(tx.marks)
	for _, id := range tx.tlSnaps.ids {
		s.tl[id].CopyFrom(&tx.tlSnaps.vals[id])
	}
	for _, id := range tx.bwSnaps.ids {
		s.bw[id].CopyFrom(&tx.bwSnaps.vals[id])
	}
	for _, id := range tx.ptlSnaps.ids {
		s.ptl[id].CopyFrom(&tx.ptlSnaps.vals[id])
	}
	if tx.dupsLen >= 0 {
		s.dups = s.dups[:tx.dupsLen]
	}
	tx.taskOld.reset()
	tx.procOld.reset()
	tx.edgeOld.reset()
	tx.tlSnaps.reset()
	tx.bwSnaps.reset()
	tx.ptlSnaps.reset()
	s.tx = nil
}

// The journaling mutators. Every write to a journaled column goes
// through one of them, and each journals the prior value before it
// stores, so a probe cannot make a write that rollback cannot undo.
// Outside a transaction (committed placements) the journal step is one
// nil check. Reads stay plain column indexing; the only other stores
// are rollback's restores and reset, which run outside
// transactions. TestMutatorsRollBack checks that each mutator's journal
// step covers its store, and TestClonePlacementEqualsTxnProbe that the
// schedulers write only through them.

// setTask journals task id's placement, then stores p.
func (s *state) setTask(id dag.TaskID, p TaskPlacement) {
	if tx := s.tx; tx != nil && !tx.taskOld.has(int(id)) {
		tx.taskOld.put(int(id), s.tasks[id])
	}
	s.tasks[id] = p
}

// setProcFinish journals processor id's clock, then stores f.
func (s *state) setProcFinish(id network.NodeID, f float64) {
	if tx := s.tx; tx != nil && !tx.procOld.has(int(id)) {
		tx.procOld.put(int(id), s.procFinish[id])
	}
	s.procFinish[id] = f
}

// addDup appends a duplicate placement. Duplicates are append-only, so
// their journal is the column length before the transaction's first
// append; rollback truncates back to it.
func (s *state) addDup(p TaskPlacement) {
	if tx := s.tx; tx != nil && tx.dupsLen < 0 {
		tx.dupsLen = len(s.dups)
	}
	// A run duplicates a source task at most once per processor.
	s.dups = append(s.dups, p)
}

// journalEdge journals edge id's fixed-width meta record for the edge
// mutators below. The meta value carries the edge's spans, so restoring
// it re-points the edge at its committed arena data; arena entries
// themselves are only ever appended inside a transaction and are
// discarded wholesale by the rollback truncation.
func (s *state) journalEdge(id dag.EdgeID) {
	if tx := s.tx; tx != nil && !tx.edgeOld.has(int(id)) {
		tx.edgeOld.put(int(id), s.edges.meta[id])
	}
}

// placeEdge starts a fresh schedule record for edge id: the route is
// copied into the route arena and one zero-valued leg per route link
// is reserved in the legs arena. The record stays invisible
// (scheduled == false) to slack and shift bookkeeping until sealEdge
// seals it.
func (s *state) placeEdge(id dag.EdgeID, src, dst network.NodeID, route network.Route, base float64) {
	s.journalEdge(id)
	st := &s.edges
	ro := int32(len(st.routes))
	// The arena's capacity persists across transactions and state reuse.
	st.routes = append(st.routes, route...)
	lo := int32(len(st.legs))
	for range route {
		st.legs = append(st.legs, legMeta{})
	}
	n := int32(len(route))
	st.meta[id] = edgeMeta{
		srcProc: src,
		dstProc: dst,
		base:    base,
		route:   span{off: ro, n: n},
		legs:    span{off: lo, n: n},
	}
}

// sealEdge seals edge id's record: the arrival (the finish on the last
// route leg, or base for an empty route) is recorded and the edge
// becomes visible to slack/shift bookkeeping. Returns the arrival.
func (s *state) sealEdge(id dag.EdgeID, base float64) float64 {
	s.journalEdge(id)
	m := &s.edges.meta[id]
	m.arrival = base
	if m.legs.n > 0 {
		m.arrival = s.edges.legs[m.legs.off+m.legs.n-1].finish
	}
	m.scheduled = true
	return m.arrival
}

// clearEdge removes edge id's schedule record. Arena entries the record
// addressed become unreachable garbage, bounded by one generation per
// edge because committed placements happen once per edge.
func (s *state) clearEdge(id dag.EdgeID) {
	s.journalEdge(id)
	s.edges.meta[id] = edgeMeta{}
}

// setLeg writes the placement record of route position leg of edge id.
// Inside a transaction, legs that predate it live below the rollback
// watermark, where truncation cannot discard a write, so they are first
// copied to the arena tail and the journaled meta span is re-pointed at
// the copy (span-level copy-on-write). Legs above the watermark, such
// as the ones placeEdge reserved in this transaction, are written in
// place. The position is re-derived from the meta column on every call:
// a copy-on-write of another edge may have grown (and reallocated) the
// legs arena since the caller last looked.
func (s *state) setLeg(id dag.EdgeID, leg int, lm legMeta) {
	s.journalEdge(id)
	m := &s.edges.meta[id]
	if tx := s.tx; tx != nil && int(m.legs.off) < tx.marks.legs {
		off := int32(len(s.edges.legs))
		s.edges.legs = append(s.edges.legs, s.edges.legs[m.legs.off:m.legs.off+m.legs.n]...)
		m.legs.off = off
	}
	s.edges.legs[int(m.legs.off)+leg] = lm
}

// linkTL journals link id's slot timeline and returns it for one
// mutating call. The copy reuses the slab arrays left in the journal's
// value slot by an earlier transaction, so steady-state journaling is
// allocation-free.
func (s *state) linkTL(id network.LinkID) *linksched.Timeline {
	if tx := s.tx; tx != nil && !tx.tlSnaps.has(int(id)) {
		old := tx.tlSnaps.stale(int(id))
		old.CopyFrom(&s.tl[id])
		tx.tlSnaps.put(int(id), old)
	}
	return &s.tl[id]
}

// linkBW journals link id's bandwidth timeline and returns it for one
// mutating call. The copy carries the slabs and their hop flags
// wholesale, so a rollback restores the availability index without any
// reindexing.
func (s *state) linkBW(id network.LinkID) *linksched.BWTimeline {
	if tx := s.tx; tx != nil && !tx.bwSnaps.has(int(id)) {
		old := tx.bwSnaps.stale(int(id))
		old.CopyFrom(&s.bw[id])
		tx.bwSnaps.put(int(id), old)
	}
	return &s.bw[id]
}

// procTL journals processor id's timeline (task insertion policy) and
// returns it for one mutating call.
func (s *state) procTL(id network.NodeID) *linksched.Timeline {
	if tx := s.tx; tx != nil && !tx.ptlSnaps.has(int(id)) {
		old := tx.ptlSnaps.stale(int(id))
		old.CopyFrom(&s.ptl[id])
		tx.ptlSnaps.put(int(id), old)
	}
	return &s.ptl[id]
}
