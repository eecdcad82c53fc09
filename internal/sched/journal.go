package sched

// journal is the dense-keyed copy-on-write log backing a probe
// transaction. Every journaled entity — tasks, processors, edges,
// link/processor timelines — is identified by a small dense integer ID
// (an index into the state's backing slice), so the journal stores
// prior values in a flat array indexed by ID instead of a map: no
// hashing on the probe hot path, no per-transaction bucket clearing,
// and the value slots persist across transactions so a timeline's
// copy can reuse the slab arrays of the one before (see state.timeline).
//
// Membership is tracked by an epoch stamp per ID: an ID belongs to the
// open transaction iff mark[id] equals the current epoch. Closing a
// transaction is O(1) — truncate the touched-ID list and bump the
// epoch — rather than O(touched) map deletions.
type journal[V any] struct {
	mark  []uint32 // mark[id] == epoch ⇔ id journaled this transaction
	vals  []V      // vals[id]: journaled prior value (persists across epochs)
	ids   []int32  // touched IDs in journaling order
	epoch uint32
}

// resize sizes the journal for IDs in [0, n), keeping whatever buffers
// it can: the value slots persist (a timeline copy's slab arrays stay
// reusable via stale) and the touched-ID list keeps its capacity. Epochs start
// at 1 so a cleared mark array means "nothing journaled". The marks are
// cleared on any length change — shrinking and re-growing within
// capacity would otherwise re-expose epoch stamps from a previous life
// of the journal, and a stale stamp equal to the current epoch would
// silently skip journaling.
func (j *journal[V]) resize(n int) {
	if n == len(j.mark) {
		return
	}
	if cap(j.mark) < n {
		j.mark = make([]uint32, n)
		j.vals = make([]V, n)
	} else {
		j.mark = j.mark[:n]
		j.vals = j.vals[:n]
		clear(j.mark)
	}
	if j.ids == nil {
		j.ids = make([]int32, 0, 16)
	}
	j.ids = j.ids[:0]
	j.epoch = 1
}

// has reports whether id was journaled in the open transaction.
func (j *journal[V]) has(id int) bool { return j.mark[id] == j.epoch }

// put journals id's prior value. The caller checks has first.
func (j *journal[V]) put(id int, v V) {
	j.mark[id] = j.epoch
	j.vals[id] = v
	// ids' capacity persists across transactions, so steady-state
	// probes append in place.
	j.ids = append(j.ids, int32(id))
}

// stale returns the value slot left over from an earlier transaction
// (the zero V if id was never journaled). Its buffers may be reused
// when capturing a fresh value to put.
func (j *journal[V]) stale(id int) V { return j.vals[id] }

// size reports how many IDs the open transaction journaled.
func (j *journal[V]) size() int { return len(j.ids) }

// reset closes the transaction in O(1): forget the touched IDs and
// invalidate all marks by bumping the epoch. On the (once per 4 billion
// transactions) epoch wraparound the marks are cleared the slow way so
// stale marks from epoch 1 can never be mistaken for fresh ones.
func (j *journal[V]) reset() {
	j.ids = j.ids[:0]
	j.epoch++
	if j.epoch == 0 {
		clear(j.mark)
		j.epoch = 1
	}
}
