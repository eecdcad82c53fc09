package network

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultRouteCacheSize is the entry capacity of a route cache created
// with capacity 0. A sweep instance touches at most |P|·(|P|−1) ordered
// processor pairs; 4096 covers a 64-processor machine completely.
const DefaultRouteCacheSize = 4096

// RouteCache memoizes BFS minimal routes between node pairs. Because a
// Topology is immutable during scheduling and BFSRoute is a pure
// function of the topology, a (src, dst) pair always yields the same
// route; the schedulers' processor probes recompute it thousands of
// times per sweep. The cache is a bounded LRU and safe for concurrent
// use, so independent Schedule requests running concurrently (via
// sched.Engine) can share one instance.
//
// The cache is internally sharded: each shard is an independent LRU
// under its own mutex, and a (src, dst) pair hashes to exactly one
// shard, so concurrent lookups of distinct pairs mostly touch distinct
// locks. One shard is an exact global LRU; more shards spread the
// capacity for concurrent callers. Sharding changes only eviction
// locality, never cached values — a route is a pure function of the
// topology either way.
//
// Every lock acquisition first tries a non-blocking TryLock and counts
// the failures, so the cache measures its own mutex contention:
// Contention() reports how many lookups/stores had to wait. The
// engine's load statistics surface it, making "do we need more
// shards?" a measured question instead of a guess.
//
// Cached routes are shared slices: callers must treat them as
// read-only, as all scheduler code does.
//
// Only BFS routes are cached. The modified Dijkstra routes of §4.3 never
// are: their labels are finish times over the current link state (the
// slots already booked on each link), so the same (src, dst) pair can
// take a different route on every call.
type RouteCache struct {
	shards []routeShard
	mask   uint32
}

// routeShard is one independently locked LRU of the cache.
type routeShard struct {
	mu        sync.Mutex
	contended atomic.Int64 // TryLock failures (lock waits)

	cap   int
	order *list.List // *routeEntry, front = most recently used
	byKey map[routeKey]*list.Element

	hits, misses int64
}

type routeKey struct {
	src, dst NodeID
}

type routeEntry struct {
	key   routeKey
	route Route
	err   error
}

// NewRouteCache returns an empty cache holding at most capacity
// entries (DefaultRouteCacheSize when capacity is 0 or negative),
// spread over shards independently locked LRUs. The shard count is
// rounded up to a power of two (1 when zero or negative) and the
// capacity divided evenly, so per-shard eviction approximates the
// global LRU.
func NewRouteCache(capacity, shards int) *RouteCache {
	if capacity <= 0 {
		capacity = DefaultRouteCacheSize
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &RouteCache{shards: make([]routeShard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].order = list.New()
		c.shards[i].byKey = make(map[routeKey]*list.Element)
	}
	return c
}

// shard maps a node pair to its shard. The multiply-xor mix spreads
// the low bits of both IDs so dense processor ID ranges do not pile
// onto one shard.
//
// edgelint:noalloc
func (c *RouteCache) shard(src, dst NodeID) *routeShard {
	h := uint32(src)*0x9E3779B1 ^ uint32(dst)*0x85EBCA77
	h ^= h >> 15
	return &c.shards[h&c.mask]
}

// lock acquires the shard mutex, counting the acquisitions that had to
// wait so cache contention is measured rather than guessed.
//
// edgelint:noalloc
func (s *routeShard) lock() {
	if !s.mu.TryLock() {
		s.contended.Add(1)
		s.mu.Lock()
	}
}

// lookup returns the cached route (or routing error) for the pair and
// whether it was present.
//
// edgelint:noalloc
func (c *RouteCache) lookup(src, dst NodeID) (Route, error, bool) {
	s := c.shard(src, dst)
	s.lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[routeKey{src, dst}]
	if !ok {
		s.misses++
		return nil, nil, false
	}
	s.hits++
	s.order.MoveToFront(el)
	e := el.Value.(*routeEntry)
	return e.route, e.err, true
}

// store records the route (or routing error) for the pair, evicting
// the shard's least recently used entry when full.
//
// edgelint:coldpath — cache fill, once per (src, dst) pair
func (c *RouteCache) store(src, dst NodeID, route Route, err error) {
	s := c.shard(src, dst)
	s.lock()
	defer s.mu.Unlock()
	key := routeKey{src, dst}
	if el, ok := s.byKey[key]; ok {
		s.order.MoveToFront(el)
		e := el.Value.(*routeEntry)
		e.route, e.err = route, err
		return
	}
	if s.order.Len() >= s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.byKey, oldest.Value.(*routeEntry).key)
	}
	s.byKey[key] = s.order.PushFront(&routeEntry{key: key, route: route, err: err})
}

// Len reports the number of cached pairs.
func (c *RouteCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats reports the lookup hit and miss counts so far.
func (c *RouteCache) Stats() (hits, misses int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// HitRate reports the fraction of lookups served from the cache (0
// when nothing was looked up yet).
func (c *RouteCache) HitRate() float64 {
	hits, misses := c.Stats()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Contention reports how many lock acquisitions (lookups, stores and
// stat reads) found their shard mutex held and had to wait. A number
// that grows with client count faster than the request rate is the
// signal to raise the shard count.
func (c *RouteCache) Contention() int64 {
	n := int64(0)
	for i := range c.shards {
		n += c.shards[i].contended.Load()
	}
	return n
}

// NumShards reports the shard count (a power of two).
func (c *RouteCache) NumShards() int { return len(c.shards) }
