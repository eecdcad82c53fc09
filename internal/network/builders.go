package network

import (
	"fmt"
	"math/rand"
)

// SpeedFn supplies node or link speeds to topology builders. Uniform(1)
// produces homogeneous systems; UniformRange(r, 1, 10) matches the
// paper's heterogeneous setup (§6).
type SpeedFn func() float64

// Uniform returns a SpeedFn yielding the constant v.
func Uniform(v float64) SpeedFn { return func() float64 { return v } }

// UniformRange returns a SpeedFn drawing integer speeds from U(lo, hi)
// (inclusive) as in the paper's U(1,10) processor and link speeds.
func UniformRange(r *rand.Rand, lo, hi int) SpeedFn {
	return func() float64 {
		if hi <= lo {
			return float64(lo)
		}
		return float64(lo + r.Intn(hi-lo+1))
	}
}

// build returns the topology a builder function made. Those functions
// connect every processor to every other, so Build fails only on a
// speed a SpeedFn gave or a size without processors: the caller's
// error, so build panics.
func build(b *Builder) *Topology {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// FullyConnected builds n processors with a duplex link between every
// pair — the classic model's assumption realized as an explicit
// topology (every pair still contends on its own private cable).
func FullyConnected(n int, proc, link SpeedFn) *Topology {
	t := new(Builder)
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = t.AddProcessor("", proc())
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := link()
			t.AddDuplex(ids[i], ids[j], s)
		}
	}
	return build(t)
}

// Ring builds n processors in a duplex ring; one processor has no link.
func Ring(n int, proc, link SpeedFn) *Topology {
	t := new(Builder)
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = t.AddProcessor("", proc())
	}
	for i := 0; i < n && n > 1; i++ {
		t.AddDuplex(ids[i], ids[(i+1)%n], link())
	}
	return build(t)
}

// Line builds n processors in a duplex chain.
func Line(n int, proc, link SpeedFn) *Topology {
	t := new(Builder)
	prev := NodeID(-1)
	for i := 0; i < n; i++ {
		id := t.AddProcessor("", proc())
		if prev >= 0 {
			t.AddDuplex(prev, id, link())
		}
		prev = id
	}
	return build(t)
}

// Star builds n processors all attached to one central switch by duplex
// links — the typical single-switch cluster.
func Star(n int, proc, link SpeedFn) *Topology {
	t := new(Builder)
	sw := t.AddSwitch("hub")
	for i := 0; i < n; i++ {
		p := t.AddProcessor("", proc())
		t.AddDuplex(p, sw, link())
	}
	return build(t)
}

// Bus builds n processors sharing a single hyperedge, the strongest
// possible contention scenario; one processor has no bus.
func Bus(n int, proc SpeedFn, busSpeed float64) *Topology {
	t := new(Builder)
	members := make([]NodeID, n)
	for i := 0; i < n; i++ {
		members[i] = t.AddProcessor("", proc())
	}
	if n > 1 {
		t.AddBus(members, busSpeed)
	}
	return build(t)
}

// Mesh2D builds a rows x cols processor mesh with duplex links between
// grid neighbours.
func Mesh2D(rows, cols int, proc, link SpeedFn) *Topology {
	return mesh2D(rows, cols, proc, link, false)
}

// Torus2D builds a rows x cols processor torus (mesh with wraparound).
func Torus2D(rows, cols int, proc, link SpeedFn) *Topology {
	return mesh2D(rows, cols, proc, link, true)
}

// mesh2D builds Mesh2D's mesh, and with wrap Torus2D's wraparound links
// after it.
func mesh2D(rows, cols int, proc, link SpeedFn, wrap bool) *Topology {
	t := new(Builder)
	ids := make([][]NodeID, rows)
	for i := 0; i < rows; i++ {
		ids[i] = make([]NodeID, cols)
		for j := 0; j < cols; j++ {
			ids[i][j] = t.AddProcessor(fmt.Sprintf("P%d_%d", i, j), proc())
			if i > 0 {
				t.AddDuplex(ids[i-1][j], ids[i][j], link())
			}
			if j > 0 {
				t.AddDuplex(ids[i][j-1], ids[i][j], link())
			}
		}
	}
	if wrap && rows > 2 {
		for j := 0; j < cols; j++ {
			t.AddDuplex(ids[rows-1][j], ids[0][j], link())
		}
	}
	if wrap && cols > 2 {
		for i := 0; i < rows; i++ {
			t.AddDuplex(ids[i][cols-1], ids[i][0], link())
		}
	}
	return build(t)
}

// Hypercube builds a 2^dim processor hypercube.
func Hypercube(dim int, proc, link SpeedFn) *Topology {
	t := new(Builder)
	n := 1 << uint(dim)
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = t.AddProcessor("", proc())
	}
	for i := 0; i < n; i++ {
		for d := 0; d < dim; d++ {
			j := i ^ (1 << uint(d))
			if j > i {
				t.AddDuplex(ids[i], ids[j], link())
			}
		}
	}
	return build(t)
}

// FatTree builds a two-level switch tree: leaves of `down` processors
// hang off each of `leafSwitches` edge switches, which all connect to a
// single core switch. It is a common cluster shape with a contended
// core.
func FatTree(leafSwitches, down int, proc, link SpeedFn) *Topology {
	t := new(Builder)
	core := t.AddSwitch("core")
	for s := 0; s < leafSwitches; s++ {
		sw := t.AddSwitch(fmt.Sprintf("S%d", s))
		t.AddDuplex(sw, core, link())
		for i := 0; i < down; i++ {
			p := t.AddProcessor("", proc())
			t.AddDuplex(p, sw, link())
		}
	}
	return build(t)
}

// RandomClusterParams parameterizes RandomCluster, the paper's §6
// topology: "each switch connects with U[4,16] processors and there
// exists a path between any pair of switches. The switches are
// connected randomly to simulate real wide area network."
type RandomClusterParams struct {
	Processors  int // total processors (≥ 1)
	MinPerSW    int // min processors per switch (default 4)
	MaxPerSW    int // max processors per switch (default 16)
	ExtraTrunks int // extra random switch-switch links beyond the
	// spanning tree; default: one per two switches
	ProcSpeed SpeedFn
	LinkSpeed SpeedFn
}

// RandomCluster builds the paper's random WAN-style topology. Switches
// are created until every processor is attached, wired into a random
// spanning tree plus ExtraTrunks random trunks so that a path exists
// between every pair while leaving room for route diversity.
func RandomCluster(r *rand.Rand, p RandomClusterParams) *Topology {
	if p.Processors < 1 {
		p.Processors = 1
	}
	if p.MinPerSW <= 0 {
		p.MinPerSW = 4
	}
	if p.MaxPerSW < p.MinPerSW {
		p.MaxPerSW = p.MinPerSW
	}
	if p.ProcSpeed == nil {
		p.ProcSpeed = Uniform(1)
	}
	if p.LinkSpeed == nil {
		p.LinkSpeed = Uniform(1)
	}
	t := new(Builder)
	var switches []NodeID
	remaining := p.Processors
	for remaining > 0 {
		take := p.MinPerSW + r.Intn(p.MaxPerSW-p.MinPerSW+1)
		if take > remaining {
			take = remaining
		}
		sw := t.AddSwitch("")
		switches = append(switches, sw)
		for i := 0; i < take; i++ {
			proc := t.AddProcessor("", p.ProcSpeed())
			t.AddDuplex(proc, sw, p.LinkSpeed())
		}
		remaining -= take
	}
	// Random spanning tree over switches: attach each new switch to a
	// random earlier one.
	for i := 1; i < len(switches); i++ {
		j := r.Intn(i)
		t.AddDuplex(switches[i], switches[j], p.LinkSpeed())
	}
	// Extra trunks for path diversity.
	extra := p.ExtraTrunks
	if extra == 0 {
		extra = len(switches) / 2
	}
	if len(switches) > 1 {
		for k := 0; k < extra; k++ {
			i := r.Intn(len(switches))
			j := r.Intn(len(switches))
			if i == j {
				continue
			}
			t.AddDuplex(switches[i], switches[j], p.LinkSpeed())
		}
	}
	return build(t)
}
