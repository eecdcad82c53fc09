package sched

import (
	"repro/internal/dag"
	"repro/internal/linksched"
	"repro/internal/network"
)

// The columnar edge store. Edge schedules used to live as one heap
// *EdgeSchedule per edge with nested Route/Placements/Chunks slices —
// O(|E|·route length) small allocations per run. Here the records are
// struct-of-arrays: one fixed-width edgeMeta per edge ID in a flat
// column, with the variable-length route, per-leg placement and
// bandwidth-chunk data appended to shared arena slices and addressed by
// (offset, length) spans. Rolling back a probe transaction is restoring the journaled
// edgeMeta values and truncating the arenas to their begin-time
// watermarks (committed data is never appended inside a transaction's
// tail, so truncation can only discard transaction-private entries).
//
// Records are written only through state's journaling edge mutators
// (txn.go); the store's own methods read, append chunk payloads, and
// serve reset and rollback.
//
// Offsets are int32: the committed arenas hold at most one record per
// scheduled edge (re-placements overwrite the meta and probe tails are
// truncated), so even 10^7-edge graphs with long routes stay far from
// the 2^31 boundary.

// span addresses a run of entries in one of the store's arenas.
type span struct {
	off int32
	n   int32
}

// edgeMeta is the fixed-width column record of one edge's schedule.
// The zero value means "no schedule" (intra-processor communication or
// a duplicated source). While an edge is being placed, scheduled stays
// false so slack/shift bookkeeping ignores the half-built record — the
// same invisibility the old nil pointer provided.
type edgeMeta struct {
	scheduled bool
	srcProc   network.NodeID
	dstProc   network.NodeID
	arrival   float64
	base      float64
	route     span // into edgeStore.routes
	legs      span // into edgeStore.legs; n == route.n
}

// legMeta is the fixed-width record of one route-leg placement.
type legMeta struct {
	link   network.LinkID
	start  float64
	finish float64
	chunks span // into edgeStore.chunks; empty for the slots engine
}

// arenaMarks are the arena lengths at transaction begin; rollback
// truncates back to them.
type arenaMarks struct {
	routes int
	legs   int
	chunks int
}

// edgeStore holds every edge schedule of one scheduler state.
type edgeStore struct {
	meta   []edgeMeta
	routes []network.LinkID
	legs   []legMeta
	chunks []linksched.Chunk
}

// init sizes the store for edge IDs in [0, n) and empties the arenas,
// reusing backing arrays the state already owns.
func (st *edgeStore) init(n int) {
	st.meta = sizeColumn(st.meta, n)
	clear(st.meta)
	st.routes = st.routes[:0]
	st.legs = st.legs[:0]
	st.chunks = st.chunks[:0]
}

// scheduled reports whether edge id has a completed schedule record.
func (st *edgeStore) scheduled(id dag.EdgeID) bool { return st.meta[id].scheduled }

// routeAt returns the link of route position leg of edge id.
func (st *edgeStore) routeAt(id dag.EdgeID, leg int) network.LinkID {
	return st.routes[int(st.meta[id].route.off)+leg]
}

// legCount returns the number of route legs reserved for edge id.
func (st *edgeStore) legCount(id dag.EdgeID) int { return int(st.meta[id].legs.n) }

// leg returns the placement record of route position leg of edge id.
func (st *edgeStore) leg(id dag.EdgeID, leg int) legMeta {
	return st.legs[int(st.meta[id].legs.off)+leg]
}

// legsView returns edge id's legs as a window into the arena, valid
// only until the next arena append.
func (st *edgeStore) legsView(id dag.EdgeID) []legMeta {
	m := st.meta[id].legs
	return st.legs[m.off : m.off+m.n]
}

// appendChunks copies cs into the chunk arena and returns its span.
func (st *edgeStore) appendChunks(cs []linksched.Chunk) span {
	off := int32(len(st.chunks))
	// The arena's capacity persists across transactions and state reuse.
	st.chunks = append(st.chunks, cs...)
	return span{off: off, n: int32(len(cs))}
}

// marks returns the current arena watermarks, recorded at transaction
// begin.
func (st *edgeStore) marks() arenaMarks {
	return arenaMarks{routes: len(st.routes), legs: len(st.legs), chunks: len(st.chunks)}
}

// truncate discards every arena entry appended past the watermarks —
// the transaction-private tail.
func (st *edgeStore) truncate(m arenaMarks) {
	st.routes = st.routes[:m.routes]
	st.legs = st.legs[:m.legs]
	st.chunks = st.chunks[:m.chunks]
}

// materialize builds the public []*EdgeSchedule view of the store, nil
// entries for unscheduled edges. All backing storage is bulk-allocated
// — one slice per column — and handed out as full-capacity subslices,
// so the view costs O(1) allocations and callers appending to a
// Route/Placements/Chunks slice reallocate privately.
func (st *edgeStore) materialize() []*EdgeSchedule {
	out := make([]*EdgeSchedule, len(st.meta))
	nSched, nLegs, nRoute, nChunks := 0, 0, 0, 0
	for i := range st.meta {
		m := &st.meta[i]
		if !m.scheduled {
			continue
		}
		nSched++
		nRoute += int(m.route.n)
		nLegs += int(m.legs.n)
		for _, l := range st.legsView(dag.EdgeID(i)) {
			nChunks += int(l.chunks.n)
		}
	}
	if nSched == 0 {
		return out
	}
	back := make([]EdgeSchedule, 0, nSched)
	routes := make([]network.LinkID, 0, nRoute)
	plcs := make([]EdgePlacement, 0, nLegs)
	chunks := make([]linksched.Chunk, 0, nChunks)
	for i := range st.meta {
		m := &st.meta[i]
		if !m.scheduled {
			continue
		}
		id := dag.EdgeID(i)
		r0 := len(routes)
		routes = append(routes, st.routes[m.route.off:m.route.off+m.route.n]...)
		p0 := len(plcs)
		for _, l := range st.legsView(id) {
			ep := EdgePlacement{Link: l.link, Start: l.start, Finish: l.finish}
			if l.chunks.n > 0 {
				c0 := len(chunks)
				chunks = append(chunks, st.chunks[l.chunks.off:l.chunks.off+l.chunks.n]...)
				ep.Chunks = chunks[c0:len(chunks):len(chunks)]
			}
			plcs = append(plcs, ep)
		}
		back = append(back, EdgeSchedule{
			Edge:       id,
			SrcProc:    m.srcProc,
			DstProc:    m.dstProc,
			Route:      network.Route(routes[r0:len(routes):len(routes)]),
			Placements: plcs[p0:len(plcs):len(plcs)],
			Arrival:    m.arrival,
			Base:       m.base,
		})
		out[i] = &back[len(back)-1]
	}
	return out
}
