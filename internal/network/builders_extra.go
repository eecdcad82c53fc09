package network

import "fmt"

// Torus3D builds an x*y*z processor torus with duplex links along all
// three dimensions (wraparound only on dimensions longer than 2).
func Torus3D(x, y, z int, proc, link SpeedFn) *Topology {
	t := new(Builder)
	id := func(i, j, k int) NodeID { return NodeID((i*y+j)*z + k) }
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				t.AddProcessor(fmt.Sprintf("P%d_%d_%d", i, j, k), proc())
			}
		}
	}
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				if i+1 < x {
					t.AddDuplex(id(i, j, k), id(i+1, j, k), link())
				} else if x > 2 {
					t.AddDuplex(id(i, j, k), id(0, j, k), link())
				}
				if j+1 < y {
					t.AddDuplex(id(i, j, k), id(i, j+1, k), link())
				} else if y > 2 {
					t.AddDuplex(id(i, j, k), id(i, 0, k), link())
				}
				if k+1 < z {
					t.AddDuplex(id(i, j, k), id(i, j, k+1), link())
				} else if z > 2 {
					t.AddDuplex(id(i, j, k), id(i, j, 0), link())
				}
			}
		}
	}
	return build(t)
}

// SwitchTree builds a k-ary tree of switches of the given depth with
// `down` processors per leaf switch — the generalized multilevel
// cluster (FatTree is the depth-1 special case).
func SwitchTree(arity, depth, down int, proc, link SpeedFn) *Topology {
	t := new(Builder)
	root := t.AddSwitch("root")
	level := []NodeID{root}
	for d := 0; d < depth; d++ {
		var next []NodeID
		for _, parent := range level {
			for c := 0; c < arity; c++ {
				sw := t.AddSwitch("")
				t.AddDuplex(sw, parent, link())
				next = append(next, sw)
			}
		}
		level = next
	}
	for _, leaf := range level {
		for i := 0; i < down; i++ {
			p := t.AddProcessor("", proc())
			t.AddDuplex(p, leaf, link())
		}
	}
	return build(t)
}

// Dumbbell builds two Star clusters of na and nb processors whose hub
// switches are joined by a single duplex trunk of the given speed —
// the canonical bottleneck scenario for contention-aware scheduling.
func Dumbbell(na, nb int, proc, link SpeedFn, trunkSpeed float64) *Topology {
	t := new(Builder)
	a := t.AddSwitch("hubA")
	b := t.AddSwitch("hubB")
	t.AddDuplex(a, b, trunkSpeed)
	for i := 0; i < na; i++ {
		p := t.AddProcessor(fmt.Sprintf("A%d", i), proc())
		t.AddDuplex(p, a, link())
	}
	for i := 0; i < nb; i++ {
		p := t.AddProcessor(fmt.Sprintf("B%d", i), proc())
		t.AddDuplex(p, b, link())
	}
	return build(t)
}

// Dragonfly builds a simplified dragonfly: groups of `groupSize`
// processors fully connected inside each group (via a group switch to
// keep link counts moderate), and one global duplex link between every
// pair of group switches.
func Dragonfly(groups, groupSize int, proc, local, global SpeedFn) *Topology {
	t := new(Builder)
	sws := make([]NodeID, groups)
	for g := 0; g < groups; g++ {
		sws[g] = t.AddSwitch(fmt.Sprintf("G%d", g))
		for i := 0; i < groupSize; i++ {
			p := t.AddProcessor("", proc())
			t.AddDuplex(p, sws[g], local())
		}
	}
	for i := 0; i < groups; i++ {
		for j := i + 1; j < groups; j++ {
			t.AddDuplex(sws[i], sws[j], global())
		}
	}
	return build(t)
}

// ButterflyNet builds a k-stage butterfly indirect network connecting
// 2^k processors on the left to the same processors' receive side via
// switch stages. To remain a practical scheduling substrate, the
// processors are attached at both ends of the butterfly and all links
// are duplex, yielding multiple disjoint routes between most pairs.
func ButterflyNet(k int, proc, link SpeedFn) *Topology {
	t := new(Builder)
	n := 1 << uint(k)
	procs := make([]NodeID, n)
	for i := 0; i < n; i++ {
		procs[i] = t.AddProcessor("", proc())
	}
	// k+1 columns of n switches.
	cols := make([][]NodeID, k+1)
	for c := 0; c <= k; c++ {
		cols[c] = make([]NodeID, n)
		for i := 0; i < n; i++ {
			cols[c][i] = t.AddSwitch(fmt.Sprintf("S%d_%d", c, i))
		}
	}
	for i := 0; i < n; i++ {
		t.AddDuplex(procs[i], cols[0][i], link())
		t.AddDuplex(procs[i], cols[k][i], link())
	}
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			t.AddDuplex(cols[c][i], cols[c+1][i], link())
			t.AddDuplex(cols[c][i], cols[c+1][i^(1<<uint(c))], link())
		}
	}
	return build(t)
}
