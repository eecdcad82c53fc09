package network

// blockTree is the block-cut tree of a topology's undirected view, in
// which u ~ v when a link joins them in either direction or both are
// members of one bus (a bus is a clique). Its blocks are the
// biconnected components of that view. Every simple route between two
// nodes stays inside the blocks on their tree path, so the modified
// Dijkstra search relaxes only hops of those blocks (DESIGN.md § Blocks
// in the modified Dijkstra), and a pair whose path blocks are all
// bridges has no route to choose.
//
// The tree is rooted at the first node of each connected component.
// Every other node hangs below exactly one block, its up block, which
// in turn hangs below its head: the cut vertex (or root) through which
// the DFS entered it.
type blockTree struct {
	up     []int32  // per node: the block above it, -1 at a root
	link   []int32  // per link: the block holding it
	blocks []block  // in the order the DFS closed them
	mark   []uint64 // per block: the epoch of the last search whose path holds it
}

type block struct {
	head  int32 // the node above the block
	depth int32 // blocks from the root down to this one, itself included
	// bridge: the block is two nodes with at most one link each way, so
	// a route crossing it has one link to take.
	bridge bool
}

// newBlockTree computes the blocks of t's undirected view with
// Hopcroft and Tarjan's depth-first search, iteratively, in O(V+E).
func newBlockTree(t *Topology) blockTree {
	n := len(t.nodes)
	// Undirected adjacency in CSR form: every hop u->v gives u ~ v and
	// v ~ u. Parallel and opposite links repeat a neighbour, which a
	// search that skips its parent node (not its parent link) treats
	// as one edge: the block of two nodes is the same either way.
	hops := 0
	for _, hs := range t.adj {
		hops += len(hs)
	}
	scratch := make([]int32, n+1+2*hops+5*n)
	off, scratch := scratch[:n+1], scratch[n+1:]
	nbr, scratch := scratch[:2*hops], scratch[2*hops:]
	next, scratch := scratch[:n], scratch[n:] // per node: its next neighbour slot
	disc, scratch := scratch[:n], scratch[n:] // DFS discovery time, 0 = unseen
	low, scratch := scratch[:n], scratch[n:]
	parent, scratch := scratch[:n], scratch[n:]
	stack := scratch[:0:n] // nodes discovered and not yet in a block
	for u, hs := range t.adj {
		off[u+1] += int32(len(hs))
		for _, h := range hs {
			off[h.To+1]++
		}
	}
	for u := range n {
		off[u+1] += off[u]
	}
	copy(next, off[:n])
	for u, hs := range t.adj {
		for _, h := range hs {
			nbr[next[u]] = int32(h.To)
			next[u]++
			nbr[next[h.To]] = int32(u)
			next[h.To]++
		}
	}
	copy(next, off[:n])

	bt := blockTree{
		up:     make([]int32, n),
		link:   make([]int32, len(t.links)),
		blocks: make([]block, 0, n), // each block takes at least one node off the stack
	}
	clock := int32(0)
	for root := range int32(n) {
		if disc[root] != 0 {
			continue
		}
		clock++
		disc[root], low[root], parent[root], bt.up[root] = clock, clock, -1, -1
		v := root
		for v >= 0 {
			if i := next[v]; i < off[v+1] {
				next[v]++
				w := nbr[i]
				switch {
				case disc[w] == 0:
					clock++
					disc[w], low[w], parent[w] = clock, clock, v
					stack = append(stack, w)
					v = w
				case w != parent[v]:
					low[v] = min(low[v], disc[w])
				}
				continue
			}
			p := parent[v]
			if p >= 0 {
				low[p] = min(low[p], low[v])
				if low[v] >= disc[p] { // p separates v's subtree: a block closes
					b := int32(len(bt.blocks))
					// Only v above p: two nodes, a bridge if the links allow.
					bt.blocks = append(bt.blocks, block{head: p, bridge: stack[len(stack)-1] == v})
					for {
						x := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						bt.up[x] = b
						if x == v {
							break
						}
					}
				}
			}
			v = p
		}
	}
	// A block closes before the block above its head, so the reverse
	// order visits every block after the one above it.
	for b := len(bt.blocks) - 1; b >= 0; b-- {
		bt.blocks[b].depth = 1
		if above := bt.up[bt.blocks[b].head]; above >= 0 {
			bt.blocks[b].depth += bt.blocks[above].depth
		}
	}

	// Each link lies in the block of its first two endpoints. Links of
	// two-node blocks are counted per direction, away from the head
	// (fwd) and towards it (bwd); a bus carries both.
	fwd, bwd := disc[:len(bt.blocks)], low[:len(bt.blocks)]
	clear(fwd)
	clear(bwd)
	for id, l := range t.links {
		a, c := l.From, l.To
		if l.IsBus() {
			a, c = l.Members[0], l.Members[1]
		}
		b := bt.blockOf(a, c)
		bt.link[id] = b
		switch {
		case !bt.blocks[b].bridge:
		case l.IsBus():
			fwd[b]++
			bwd[b]++
		case int32(a) == bt.blocks[b].head:
			fwd[b]++
		default:
			bwd[b]++
		}
	}
	for b := range bt.blocks {
		bt.blocks[b].bridge = bt.blocks[b].bridge && fwd[b] <= 1 && bwd[b] <= 1
	}
	bt.mark = make([]uint64, len(bt.blocks))
	return bt
}

// blockOf returns the block holding two adjacent nodes: the one both
// hang below, or the one below the other.
func (bt *blockTree) blockOf(a, c NodeID) int32 {
	ua, uc := bt.up[a], bt.up[c]
	if ua >= 0 && (ua == uc || bt.blocks[ua].head == int32(c)) {
		return ua
	}
	return uc
}

// depth is the number of blocks between n and its root.
func (bt *blockTree) depth(n NodeID) int32 {
	if b := bt.up[n]; b >= 0 {
		return bt.blocks[b].depth
	}
	return 0
}

// markPath stamps with epoch e every block on the tree path between
// src and dst, and reports whether the pair is forced: joined by a
// path whose blocks are all bridges, so it has exactly one simple
// route in the undirected view. src == dst is forced (the empty
// route); a pair in two components is not (it has none).
func (bt *blockTree) markPath(src, dst NodeID, e uint64) bool {
	forced := true
	for src != dst {
		ds, dd := bt.depth(src), bt.depth(dst)
		if ds == 0 && dd == 0 {
			return false // two roots: two components
		}
		if ds >= dd {
			src = bt.climb(src, e, &forced)
		}
		if dd >= ds {
			dst = bt.climb(dst, e, &forced)
		}
	}
	return forced
}

// climb marks the block above n with epoch e, clears *forced unless
// that block is a bridge, and returns the block's head.
func (bt *blockTree) climb(n NodeID, e uint64, forced *bool) NodeID {
	b := &bt.blocks[bt.up[n]]
	bt.mark[bt.up[n]] = e
	*forced = *forced && b.bridge
	return NodeID(b.head)
}
