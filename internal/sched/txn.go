package sched

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/linksched"
	"repro/internal/network"
)

// txn journals every piece of scheduler state the current tentative
// placement touches, so that BA's earliest-finish-time processor probe
// can be rolled back cheaply: only the timelines, task/edge records and
// processor clocks actually modified are saved (copy-on-write), not the
// whole network. The journals are slice-backed (see journal) and their
// snapshot buffers are recycled across transactions, so a steady-state
// probe journals without allocating.
type txn struct {
	taskOld  journal[TaskPlacement]
	procOld  journal[float64]
	edgeOld  journal[edgeMeta]
	tlSnaps  journal[linksched.Snapshot]
	bwSnaps  journal[linksched.BWSnapshot]
	ptlSnaps journal[linksched.Snapshot]
	// dupsLen is the duplicates count at transaction start; rollback
	// truncates to it (duplicates are append-only).
	dupsLen int
	// marks are the edge-store arena lengths at transaction start;
	// rollback truncates the arenas to them, discarding every
	// route/leg/chunk entry the transaction appended. Committed records
	// all live below the marks, so restoring the journaled edgeMeta
	// values plus this truncation restores the store exactly.
	marks arenaMarks
	// fp is the rollback oracle's deep fingerprint of the whole state,
	// captured at begin on every Options.VerifyRollbackEvery'th
	// transaction; rollback re-fingerprints after restoring and panics
	// on any difference, naming the corrupted field and ID.
	fp *fingerprint
}

// begin opens a transaction. Transactions do not nest. The journal
// arrays are owned by the state and reused across transactions, so a
// probe transaction allocates nothing in steady state.
//
// edgelint:noalloc
func (s *state) begin() {
	if s.tx != nil {
		panic("sched: nested transaction")
	}
	if s.txFree == nil {
		s.txFree = s.newTxn()
	} else {
		s.checkJournalSizes(s.txFree)
	}
	s.tx = s.txFree
	s.tx.dupsLen = len(s.dups)
	s.tx.marks = s.edges.marks()
	if n := s.opts.VerifyRollbackEvery; n > 0 && s.txSeq%uint64(n) == 0 {
		s.tx.fp = s.captureFingerprint()
	}
	s.txSeq++
}

// newTxn builds the state's reusable transaction journal. Runs once per
// state: every later begin reuses the journal via s.txFree, and reset
// resizes it whenever the state is rebound.
//
// edgelint:coldpath — one-time journal construction, reused via txFree
func (s *state) newTxn() *txn {
	tx := &txn{}
	s.sizeJournals(tx)
	return tx
}

// sizeJournals sizes every journal of tx to the state's entity counts.
//
// edgelint:coldpath — journal sizing at construction and reset
func (s *state) sizeJournals(tx *txn) {
	tx.taskOld.resize(len(s.tasks))
	tx.procOld.resize(len(s.procFinish))
	tx.edgeOld.resize(len(s.edges.meta))
	tx.tlSnaps.resize(len(s.tl))
	tx.bwSnaps.resize(len(s.bw))
	tx.ptlSnaps.resize(len(s.ptl))
}

// checkJournalSizes verifies that the reusable journals still match the
// state's entity counts: journal.put indexes mark[id] unchecked, so a
// journal sized for a different entity census would corrupt memory or
// panic opaquely deep inside a probe. Drift can only come from a bug in
// the pool plumbing (reset resizes the journals), so this
// fails loudly with a named panic rather than limping on.
//
// edgelint:noalloc
func (s *state) checkJournalSizes(tx *txn) {
	if len(tx.taskOld.mark) != len(s.tasks) ||
		len(tx.procOld.mark) != len(s.procFinish) ||
		len(tx.edgeOld.mark) != len(s.edges.meta) ||
		len(tx.tlSnaps.mark) != len(s.tl) ||
		len(tx.bwSnaps.mark) != len(s.bw) ||
		len(tx.ptlSnaps.mark) != len(s.ptl) {
		s.journalSizeDrift(tx)
	}
}

// journalSizeDrift formats the named size-drift panic off the hot path.
//
// edgelint:coldpath — panic formatting, unreachable unless state is corrupt
func (s *state) journalSizeDrift(tx *txn) {
	panic(fmt.Sprintf("sched: journal size drift: journals sized for "+
		"%d tasks/%d procs/%d edges/%d tl/%d bw/%d ptl, state has %d/%d/%d/%d/%d/%d",
		len(tx.taskOld.mark), len(tx.procOld.mark), len(tx.edgeOld.mark),
		len(tx.tlSnaps.mark), len(tx.bwSnaps.mark), len(tx.ptlSnaps.mark),
		len(s.tasks), len(s.procFinish), len(s.edges.meta),
		len(s.tl), len(s.bw), len(s.ptl)))
}

// rollback restores everything the transaction touched and closes it.
// The journals are walked with plain loops rather than each callbacks:
// a closure capturing s would be a fresh heap allocation on every
// rollback, and rollback runs once per EFT probe.
//
// edgelint:noalloc
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
		s.tl[id].Restore(tx.tlSnaps.vals[id])
	}
	for _, id := range tx.bwSnaps.ids {
		s.bw[id].Restore(tx.bwSnaps.vals[id])
	}
	for _, id := range tx.ptlSnaps.ids {
		s.ptl[id].Restore(tx.ptlSnaps.vals[id])
	}
	if len(s.dups) > tx.dupsLen {
		s.dups = s.dups[:tx.dupsLen]
	}
	if tx.fp != nil {
		fp := tx.fp
		tx.fp = nil
		if d := fp.diff(s); d != "" {
			panic("sched: incomplete rollback (un-journaled write?): " + d)
		}
	}
	tx.taskOld.reset()
	tx.procOld.reset()
	tx.edgeOld.reset()
	tx.tlSnaps.reset()
	tx.bwSnaps.reset()
	tx.ptlSnaps.reset()
	s.tx = nil
}

// touchTask journals a task placement before modification.
//
// edgelint:noalloc
func (s *state) touchTask(id dag.TaskID) {
	if s.tx == nil {
		return
	}
	if !s.tx.taskOld.has(int(id)) {
		s.tx.taskOld.put(int(id), s.tasks[id])
	}
}

// touchProc journals a processor clock before modification.
//
// edgelint:noalloc
func (s *state) touchProc(id network.NodeID) {
	if s.tx == nil {
		return
	}
	if !s.tx.procOld.has(int(id)) {
		s.tx.procOld.put(int(id), s.procFinish[id])
	}
}

// touchEdge journals an edge's fixed-width meta record before
// replacement or mutation. The meta value carries the edge's spans, so
// restoring it re-points the edge at its committed arena data; arena
// entries themselves are only ever appended inside a transaction and
// are discarded wholesale by the rollback truncation.
//
// edgelint:noalloc
func (s *state) touchEdge(id dag.EdgeID) {
	if s.tx == nil {
		return
	}
	if !s.tx.edgeOld.has(int(id)) {
		s.tx.edgeOld.put(int(id), s.edges.meta[id])
	}
}

// cowEdgeLegs makes edge id's leg records safe to mutate in place:
// inside a transaction, legs that predate the transaction — they live
// below the rollback watermark, where truncation cannot discard a
// write — are copied to the arena tail first, and the meta span is
// re-pointed at the copy. The pre-copy meta is journaled on the spot:
// skipping that would let the caller mutate committed arena entries
// that rollback cannot restore (the span-level silent-rollback hole).
// Legs already above the watermark are transaction-private and mutable
// as they are.
func (s *state) cowEdgeLegs(id dag.EdgeID) {
	if s.tx == nil {
		return
	}
	s.touchEdge(id)
	m := &s.edges.meta[id]
	if m.legs.n == 0 || int(m.legs.off) >= s.tx.marks.legs {
		return // transaction-private (or empty): in-place writes roll back fine
	}
	off := int32(len(s.edges.legs))
	// edgelint:coldpath — amortized arena growth; capacity persists
	// across transactions and pooled reuse.
	s.edges.legs = append(s.edges.legs, s.edges.legs[m.legs.off:m.legs.off+m.legs.n]...)
	m.legs.off = off
}

// touchTimeline journals a slot timeline before modification. The
// snapshot reuses the buffers left in the journal's value slot by an
// earlier transaction, so steady-state journaling is allocation-free.
//
// edgelint:noalloc
func (s *state) touchTimeline(id network.LinkID) {
	if s.tx == nil {
		return
	}
	if !s.tx.tlSnaps.has(int(id)) {
		s.tx.tlSnaps.put(int(id), s.tl[id].SnapshotInto(s.tx.tlSnaps.stale(int(id))))
	}
}

// touchDup is a no-op marker: duplicates are append-only and rolled
// back by truncation to the length recorded at begin.
//
// edgelint:noalloc
func (s *state) touchDup() {}

// touchProcTimeline journals a processor timeline (task insertion
// policy) before modification.
//
// edgelint:noalloc
func (s *state) touchProcTimeline(id network.NodeID) {
	if s.tx == nil {
		return
	}
	if !s.tx.ptlSnaps.has(int(id)) {
		s.tx.ptlSnaps.put(int(id), s.ptl[id].SnapshotInto(s.tx.ptlSnaps.stale(int(id))))
	}
}

// touchBWTimeline journals a bandwidth timeline before modification.
// The snapshot carries the chunked slabs and their block summaries
// wholesale (buffer-reused via the stale snapshot), so a rollback
// restores the availability index without any reindexing.
//
// edgelint:noalloc
func (s *state) touchBWTimeline(id network.LinkID) {
	if s.tx == nil {
		return
	}
	if !s.tx.bwSnaps.has(int(id)) {
		s.tx.bwSnaps.put(int(id), s.bw[id].SnapshotInto(s.tx.bwSnaps.stale(int(id))))
	}
}
