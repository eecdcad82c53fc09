package sched

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/linksched"
	"repro/internal/network"
)

// TestCloneShapeMatchesParent is the nil-vs-empty regression test: the
// old Clone built some columns with append([]T(nil), ...) — nil for
// empty inputs — and others with make, so a clone's shape differed
// from its parent on degenerate topologies and the fingerprint oracle
// could not compare them field-for-field. copyColumn preserves the
// parent's shape exactly: nil stays nil, empty-non-nil stays
// empty-non-nil.
func TestCloneShapeMatchesParent(t *testing.T) {
	// One task, zero edges, no duplicates: every edge column and the
	// dups column are degenerate.
	g := dag.New()
	g.AddTask("only", 1)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{ProcSelect: ProcSelectEFT})
	c := s.Clone()

	shape := func(name string, parent, clone any) {
		t.Helper()
		pv, cv := reflect.ValueOf(parent), reflect.ValueOf(clone)
		if pv.IsNil() != cv.IsNil() {
			t.Errorf("%s shape differs: parent nil=%v, clone nil=%v", name, pv.IsNil(), cv.IsNil())
		}
		if pv.Len() != cv.Len() {
			t.Errorf("%s length differs: parent %d, clone %d", name, pv.Len(), cv.Len())
		}
	}
	shape("tasks", s.tasks, c.tasks)
	shape("procFinish", s.procFinish, c.procFinish)
	shape("dups", s.dups, c.dups)
	shape("edges.meta", s.edges.meta, c.edges.meta)
	shape("edges.routes", s.edges.routes, c.edges.routes)
	shape("edges.legs", s.edges.legs, c.edges.legs)
	shape("edges.chunks", s.edges.chunks, c.edges.chunks)
	shape("tl", s.tl, c.tl)
	shape("bw", s.bw, c.bw)
	shape("ptl", s.ptl, c.ptl)
}

// TestJournalSizeDriftPanics pins the begin-time size check: a journal
// sized for a different entity census must fail with the named panic
// instead of corrupting memory inside journal.put.
func TestJournalSizeDriftPanics(t *testing.T) {
	g := dag.Chain(3, 1, 10)
	net := network.Line(2, network.Uniform(1), network.Uniform(1))
	s := mkState(t, g, net, Options{})
	p := net.Processors()
	if _, err := s.placeTask(0, p[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.probe(1, p[1]); err != nil { // sizes the reusable journal
		t.Fatal(err)
	}
	s.tasks = s.tasks[:len(s.tasks)-1] // simulate entity-count drift
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("begin accepted a journal sized for a different entity count")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "sched: journal size drift") {
			t.Fatalf("drift panic not named: %v", msg)
		}
	}()
	s.begin()
}

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

// TestForkColumnIndependence is the clone-independence property test
// over the span-arena storage: after a fork, mutating EVERY column of
// the fork — placement columns, edge meta, all three arenas, timeline
// slabs — must leave the parent bit-identical under the fingerprint
// oracle's exact comparison. A single shared backing array anywhere
// fails this.
func TestForkColumnIndependence(t *testing.T) {
	for name, opts := range forkOptionSets() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			g, net := forkInstance(11)
			s := mkState(t, g, net, opts)
			order, err := g.PriorityOrder()
			if err != nil {
				t.Fatal(err)
			}
			// Commit enough tasks that every column holds real data.
			for _, tid := range order[:len(order)/2] {
				proc, err := s.selectProcessor(tid)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.placeTask(tid, proc); err != nil {
					t.Fatal(err)
				}
			}
			fp := s.captureFingerprint()
			f := s.Clone()

			for i := range f.tasks {
				f.tasks[i].Start += 1
				f.tasks[i].Finish += 2
			}
			for i := range f.procFinish {
				f.procFinish[i] += 3
			}
			for i := range f.dups {
				f.dups[i].Start += 1
			}
			for i := range f.edges.meta {
				f.edges.meta[i].arrival += 5
				f.edges.meta[i].base += 5
				f.edges.meta[i].scheduled = !f.edges.meta[i].scheduled
			}
			for i := range f.edges.routes {
				f.edges.routes[i]++
			}
			for i := range f.edges.legs {
				f.edges.legs[i].start += 7
				f.edges.legs[i].finish += 7
			}
			for i := range f.edges.chunks {
				f.edges.chunks[i].Volume += 9
				f.edges.chunks[i].Rate += 1
			}
			for i := range f.tl {
				f.tl[i].InsertBasic(linksched.Owner{Edge: 999, Leg: 0},
					linksched.Request{ES: 1e6, PF: 1e6, Dur: 1})
			}
			for i := range f.bw {
				f.bw[i].Alloc(linksched.Owner{Edge: 999, Leg: 0}, 1e6, 10, 1, 0)
			}
			for i := range f.ptl {
				f.ptl[i].InsertBasic(linksched.Owner{Edge: 998, Leg: -1},
					linksched.Request{ES: 1e6, PF: 1e6, Dur: 1})
			}

			if d := fp.diff(s); d != "" {
				t.Fatalf("mutating the fork's columns changed the parent: %s", d)
			}
		})
	}
}

// The end-to-end companions of these tests — bit-identical schedules
// across ProbeWorkers settings and across pooled-fork reuse — live in
// soa_ext_test.go (package sched_test) so they can validate every
// schedule through verify.Verify, which imports this package.
