package network

import (
	"testing"
)

func TestTorus3D(t *testing.T) {
	top := Torus3D(3, 3, 3, Uniform(1), Uniform(1))
	if top.NumProcessors() != 27 {
		t.Fatalf("procs %d, want 27", top.NumProcessors())
	}
	// Full 3-D torus on 3^3: each node has 6 neighbours, each duplex
	// cable counted once per direction: 27*6 = 162 directed links.
	if top.NumLinks() != 162 {
		t.Fatalf("links %d, want 162", top.NumLinks())
	}
	// Wraparound shortens corner-to-corner routes to ≤ 3 hops.
	route, err := top.NewRouter(nil).BFSRoute(0, 26)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) > 3 {
		t.Fatalf("route %d hops, want ≤ 3", len(route))
	}
}

func TestTorus3DNoWraparoundOnShortDims(t *testing.T) {
	top := Torus3D(2, 2, 2, Uniform(1), Uniform(1))
	// 2-long dimensions must not get duplicate wraparound cables: a
	// 2x2x2 torus is exactly a 3-cube: 8 procs * 3 cables = 12 duplex.
	if top.NumLinks() != 24 {
		t.Fatalf("links %d, want 24", top.NumLinks())
	}
}

func TestSwitchTree(t *testing.T) {
	top := SwitchTree(2, 2, 3, Uniform(1), Uniform(1))
	// depth 2, arity 2: 1 + 2 + 4 switches; 4 leaves * 3 procs.
	if top.NumProcessors() != 12 {
		t.Fatalf("procs %d, want 12", top.NumProcessors())
	}
	if got := top.NumNodes() - top.NumProcessors(); got != 7 {
		t.Fatalf("switches %d, want 7", got)
	}
	// Processors under different leaves route through the tree.
	ps := top.procs
	route, err := top.NewRouter(nil).BFSRoute(ps[0], ps[11])
	if err != nil {
		t.Fatal(err)
	}
	if len(route) < 4 {
		t.Fatalf("cross-tree route %d hops, want ≥ 4", len(route))
	}
}

func TestDumbbell(t *testing.T) {
	top := Dumbbell(3, 4, Uniform(1), Uniform(2), 0.5)
	if top.NumProcessors() != 7 {
		t.Fatalf("procs %d", top.NumProcessors())
	}
	// Cross-cluster routes pass the trunk: 3 hops.
	ps := top.procs
	route, err := top.NewRouter(nil).BFSRoute(ps[0], ps[3])
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 3 {
		t.Fatalf("cross route %d hops, want 3", len(route))
	}
}

func TestDragonfly(t *testing.T) {
	top := Dragonfly(4, 3, Uniform(1), Uniform(4), Uniform(1))
	if top.NumProcessors() != 12 {
		t.Fatalf("procs %d", top.NumProcessors())
	}
	// Global links: C(4,2) duplex pairs = 12 directed; local: 12*2.
	if top.NumLinks() != 12+24 {
		t.Fatalf("links %d, want 36", top.NumLinks())
	}
}

func TestButterflyNet(t *testing.T) {
	top := ButterflyNet(3, Uniform(1), Uniform(1))
	if top.NumProcessors() != 8 {
		t.Fatalf("procs %d", top.NumProcessors())
	}
	// 4 columns of 8 switches.
	if got := top.NumNodes() - top.NumProcessors(); got != 32 {
		t.Fatalf("switches %d, want 32", got)
	}
	// Any pair of processors is connected.
	ps := top.procs
	if _, err := top.NewRouter(nil).BFSRoute(ps[0], ps[7]); err != nil {
		t.Fatal(err)
	}
}
