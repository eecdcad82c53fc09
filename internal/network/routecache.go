package network

// routeCacheCap bounds a RouteCache's entries: every ordered processor
// pair of a 128-processor machine fits.
const routeCacheCap = 1 << 14

// RouteCache memoizes BFS minimal routes between node pairs. Because a
// Topology is immutable during scheduling and BFSRoute is a pure
// function of the topology, a (src, dst) pair always yields the same
// route; the schedulers' processor probes recompute it thousands of
// times per run.
//
// A cache has one owner: the Router it is attached to, and so the one
// scheduler state holding that Router. It is not safe for concurrent
// use and is never shared. When it reaches routeCacheCap entries it is
// emptied and refills on demand, which changes no route.
//
// Cached routes are shared by every later lookup of the same pair:
// callers must treat them as read-only, as all scheduler code does.
//
// Only BFS routes are cached. The modified Dijkstra routes of §4.3 never
// are: their labels are finish times over the current link state (the
// slots already booked on each link), so the same (src, dst) pair can
// take a different route on every call. A forced pair (Router.Route),
// joined only through bridges, has one route whatever the link state:
// its BFS route, which Route takes from the cache.
type RouteCache struct {
	routes map[routeKey]routeEntry
}

type routeKey struct {
	src, dst NodeID
}

type routeEntry struct {
	route Route
	err   error
}

// NewRouteCache returns an empty cache.
func NewRouteCache() *RouteCache {
	return &RouteCache{routes: make(map[routeKey]routeEntry)}
}

// lookup returns the cached route (or routing error) for the pair and
// whether it was present.
//
// edgelint:noalloc
func (c *RouteCache) lookup(src, dst NodeID) (Route, error, bool) {
	e, ok := c.routes[routeKey{src, dst}]
	return e.route, e.err, ok
}

// store records the route (or routing error) for the pair, first
// emptying the cache when it is full.
//
// edgelint:coldpath — cache fill, once per (src, dst) pair
func (c *RouteCache) store(src, dst NodeID, route Route, err error) {
	if len(c.routes) >= routeCacheCap {
		clear(c.routes)
	}
	c.routes[routeKey{src, dst}] = routeEntry{route, err}
}
