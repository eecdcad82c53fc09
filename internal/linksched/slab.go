package linksched

import "fmt"

// slabBlock is the nominal slab size of the slab store both link
// ledgers are built on. A slab holds 1 to 2*slabBlock entries, so an
// insert moves O(slabBlock) entries plus, when it splits a full slab,
// O(#slabs) headers — never the whole ledger — and a kernel that
// prunes on slab summaries touches O(n/slabBlock) summaries plus the
// slabs that survive.
const slabBlock = 32

// slab is one non-empty, sorted run of a ledger's entries with the
// summary the ledger's kernels prune on: a pure fold of the slab's own
// entries, refreshed whenever they change and recomputed exactly by
// validate.
type slab[E any, S comparable] struct {
	items []E
	sum   S
}

// last returns the slab's last entry.
func (sl *slab[E, S]) last() *E { return &sl.items[len(sl.items)-1] }

// fold computes a slab's summary from its entries.
type fold[E any, S comparable] func(items []E) S

// grow updates sum, the summary of items before items[i] was inserted,
// to fold items in O(1), or reports that it cannot.
type grow[E any, S comparable] func(sum *S, items []E, i int) bool

// cursor addresses entry i of slab s; {len(slabs), 0} is the position
// past the last entry.
type cursor struct{ s, i int }

// slabStore is the sorted interval list of a link ledger: the
// exclusive slots of a Timeline or the bandwidth segments of a
// BWTimeline, kept as a list of slabs. The store owns the structure —
// where entries live, when a slab splits, which arrays are reused —
// and the ledger owns the order and the summaries: search takes the
// ledger's order predicate, and every mutation takes the fold that
// computes a slab's summary.
//
// Entries are plain values, and slab arrays are never shared: a split
// copies its upper half into another slab's array, and copyFrom copies
// each slab into an array of its own. Arrays outlive their slabs in the
// capacity region of the header slice, where reset and copyFrom leave
// them and a later split or copy picks them up again.
//
// The zero value is an empty store.
type slabStore[E any, S comparable] struct {
	slabs []slab[E, S]
	n     int // entries across all slabs
}

// end returns the position past the last entry.
func (st *slabStore[E, S]) end() cursor { return cursor{s: len(st.slabs)} }

// at returns the entry at c, which must not be end().
func (st *slabStore[E, S]) at(c cursor) *E { return &st.slabs[c.s].items[c.i] }

// next returns the position after c.
func (st *slabStore[E, S]) next(c cursor) cursor {
	if c.i++; c.i == len(st.slabs[c.s].items) {
		return cursor{s: c.s + 1}
	}
	return c
}

// seek returns search(before, x), walking there from c, a position the
// caller already holds near the answer — typically where its own walk
// stopped, or where its last mutation left off. It backs up over
// entries for which before is false and advances over entries for which
// it is true, hopping whole slabs either way, so it costs the distance
// from c to the answer, not a binary search. The result is search's
// cursor exactly, ties included, since before is monotone.
func (st *slabStore[E, S]) seek(c cursor, before func(e *E, x float64) bool, x float64) cursor {
	for c.s > 0 || c.i > 0 {
		if c.i == 0 && c.s > 0 && !before(&st.slabs[c.s-1].items[0], x) {
			c.s-- // the whole previous slab lies at or past the answer
			continue
		}
		p := c
		if p.i == 0 {
			p = cursor{p.s - 1, len(st.slabs[p.s-1].items)}
		}
		p.i--
		if before(st.at(p), x) {
			break
		}
		c = p
	}
	for c.s < len(st.slabs) {
		items := st.slabs[c.s].items
		if c.i == 0 && before(&items[len(items)-1], x) {
			c.s++ // the whole slab lies before the answer
			continue
		}
		if !before(&items[c.i], x) {
			break
		}
		c = st.next(c)
	}
	return c
}

// search returns the first entry e for which before(e, x) is false, or
// end() when there is none. before must be monotone over the store's
// order (true on a prefix, false after), so the two-level binary
// search — slab by its last entry, then within the slab — lands where
// a binary search over the flattened entries would.
func (st *slabStore[E, S]) search(before func(e *E, x float64) bool, x float64) cursor {
	lo, hi := 0, len(st.slabs)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); before(st.slabs[m].last(), x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(st.slabs) {
		return st.end()
	}
	items := st.slabs[lo].items
	i, j := 0, len(items)
	for i < j {
		if m := int(uint(i+j) >> 1); before(&items[m], x) {
			i = m + 1
		} else {
			j = m
		}
	}
	return cursor{lo, i}
}

// refresh recomputes slab s's summary after its entries changed in
// place.
func (st *slabStore[E, S]) refresh(s int, f fold[E, S]) {
	st.slabs[s].sum = f(st.slabs[s].items)
}

// insert places e before the entry at c (after the last entry when c
// is end()), brings the summaries of the slabs it touched up to date
// and returns e's position. A full slab first splits in half, except
// that an append past the last entry of a full last slab opens a new
// slab, so a ledger that grows at its tail keeps its slabs full. A
// slab that only gained e is updated by g if g is set and can; any
// other slab touched is folded with f.
func (st *slabStore[E, S]) insert(c cursor, e E, f fold[E, S], g grow[E, S]) cursor {
	if c.s == len(st.slabs) {
		if c.s == 0 {
			st.open(0)
		} else {
			c = cursor{c.s - 1, len(st.slabs[c.s-1].items)}
		}
	}
	other := -1 // the other half of a split slab
	items := st.slabs[c.s].items
	fresh := len(items) == 0 || len(items) == 2*slabBlock // e lands in a new slab or a split half
	if len(items) == 2*slabBlock {
		if c.s == len(st.slabs)-1 && c.i == len(items) {
			c = cursor{s: c.s + 1}
			sl := st.open(c.s)
			sl.items = fullArray(sl.items)
		} else {
			st.split(c.s)
			other = c.s + 1
			if c.i > slabBlock {
				other, c = c.s, cursor{c.s + 1, c.i - slabBlock}
			}
		}
	}
	sl := &st.slabs[c.s]
	if len(sl.items) == cap(sl.items) {
		// edgelint:coldpath — amortized growth of a slab array that
		// started small (a store's first slab, a copied slab), doubling
		// up to the slab maximum.
		grown := make([]E, len(sl.items), min(max(2*cap(sl.items), 4), 2*slabBlock))
		copy(grown, sl.items)
		sl.items = grown
	}
	sl.items = sl.items[:len(sl.items)+1]
	copy(sl.items[c.i+1:], sl.items[c.i:])
	sl.items[c.i] = e
	st.n++
	if fresh || g == nil || !g(&sl.sum, sl.items, c.i) {
		st.refresh(c.s, f)
	}
	if other >= 0 {
		st.refresh(other, f)
	}
	return c
}

// split moves the upper half of full slab s into a new slab s+1.
func (st *slabStore[E, S]) split(s int) {
	right := st.open(s + 1)
	left := &st.slabs[s]
	right.items = fullArray(right.items)[:slabBlock]
	copy(right.items, left.items[slabBlock:])
	left.items = left.items[:slabBlock]
}

// fullArray empties items, giving it a full slab's capacity.
func fullArray[E any](items []E) []E {
	if cap(items) < 2*slabBlock {
		// edgelint:coldpath — one array per slab; reset and copyFrom
		// keep it for the store's next life.
		return make([]E, 0, 2*slabBlock)
	}
	return items[:0]
}

// open inserts an empty slab at index s and returns it. The slab
// takes over the array of the header retained just past the live
// ones, if there is one.
func (st *slabStore[E, S]) open(s int) *slab[E, S] {
	n := len(st.slabs)
	if n == cap(st.slabs) {
		// edgelint:coldpath — amortized header growth; reset and
		// copyFrom keep the capacity.
		st.slabs = append(st.slabs, slab[E, S]{})
	}
	st.slabs = st.slabs[:n+1]
	spare := st.slabs[n].items[:0]
	copy(st.slabs[s+1:], st.slabs[s:n])
	st.slabs[s] = slab[E, S]{items: spare}
	return &st.slabs[s]
}

// reset empties the store, keeping the header slice and every slab
// array for reuse.
func (st *slabStore[E, S]) reset() {
	st.slabs = st.slabs[:0]
	st.n = 0
}

// copyFrom makes st an independent copy of src, reusing st's headers
// and slab arrays, including those retained past the live ones.
func (st *slabStore[E, S]) copyFrom(src *slabStore[E, S]) {
	n := len(src.slabs)
	if cap(st.slabs) < n {
		// edgelint:coldpath — one-time header growth; the capacity
		// persists across transactions in the journal's stale copy.
		st.slabs = append(st.slabs[:cap(st.slabs)], make([]slab[E, S], n-cap(st.slabs))...)
	}
	st.slabs = st.slabs[:n]
	for k := range src.slabs {
		st.slabs[k].items = append(st.slabs[k].items[:0], src.slabs[k].items...)
		st.slabs[k].sum = src.slabs[k].sum
	}
	st.n = src.n
}

// validate checks the store's structure — every slab non-empty and at
// most 2*slabBlock entries, the entry count matching — and recomputes
// every summary with f. Comparisons are exact: a summary is a fold
// of the very values the recomputation reads, so any difference is a
// maintenance bug, not rounding.
func (st *slabStore[E, S]) validate(f fold[E, S]) error {
	n := 0
	for k := range st.slabs {
		sl := &st.slabs[k]
		if len(sl.items) == 0 || len(sl.items) > 2*slabBlock {
			return fmt.Errorf("linksched: slab %d holds %d entries, want 1..%d", k, len(sl.items), 2*slabBlock)
		}
		if sum := f(sl.items); sum != sl.sum {
			return fmt.Errorf("linksched: slab %d summary %+v != recomputed %+v", k, sl.sum, sum)
		}
		n += len(sl.items)
	}
	if n != st.n {
		return fmt.Errorf("linksched: slab store counts %d entries, holds %d", st.n, n)
	}
	return nil
}
