package sched

import "testing"

// TestJournalResizeClearsStaleMarks covers the resize hazard directly:
// shrinking and re-growing a journal within its capacity re-exposes
// mark words from a previous life; if they survived, a stale stamp
// equal to the current epoch would make has() report membership that
// was never journaled this transaction.
func TestJournalResizeClearsStaleMarks(t *testing.T) {
	var j journal[int]
	j.resize(4)
	j.put(3, 30)
	j.resize(2)
	j.resize(4) // re-grow within capacity, re-exposing index 3's mark
	if j.has(3) {
		t.Fatal("resize re-exposed a stale mark as current membership")
	}
	if j.size() != 0 {
		t.Fatalf("resize left %d touched IDs", j.size())
	}
	j.put(1, 10)
	if !j.has(1) || j.stale(1) != 10 {
		t.Fatal("journal unusable after resize")
	}
}

// TestJournalResetEpochWraparound drives the epoch-overflow path of
// reset directly: at epoch 2^32-1 the increment wraps, the marks must
// be cleared the slow way, and no membership from the final epoch may
// leak into the restarted one.
func TestJournalResetEpochWraparound(t *testing.T) {
	var j journal[int]
	j.resize(3)
	j.epoch = ^uint32(0)
	j.put(0, 10)
	j.put(2, 30)
	if !j.has(0) || !j.has(2) {
		t.Fatal("puts at the final epoch not visible")
	}
	j.reset()
	if j.epoch != 1 {
		t.Fatalf("epoch after wraparound = %d, want 1", j.epoch)
	}
	for id := 0; id < 3; id++ {
		if j.has(id) {
			t.Fatalf("stale membership leaked through the epoch wraparound: id %d", id)
		}
	}
	if j.size() != 0 {
		t.Fatalf("reset left %d touched IDs", j.size())
	}
	j.put(1, 20)
	if !j.has(1) || j.has(0) || j.has(2) {
		t.Fatal("journal membership wrong after wraparound reset")
	}
}
