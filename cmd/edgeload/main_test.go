package main

import (
	"strings"
	"testing"
	"time"
)

// TestCheckFlags pins the usage errors: each setting that leaves
// nothing to measure is rejected by name, and the settings accepted,
// the smallest included, build one request body per graph.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		clients, graphs, tasks int
		duration               time.Duration
		flag                   string // "" = accepted
	}{
		{1, 1, 1, time.Nanosecond, ""},
		{8, 16, 30, 5 * time.Second, ""},
		{0, 16, 30, time.Second, "-clients"},
		{-1, 16, 30, time.Second, "-clients"},
		{8, 0, 30, time.Second, "-graphs"},
		{8, 16, 0, time.Second, "-tasks"},
		{8, 16, 30, 0, "-duration"},
		{8, 16, 30, -time.Second, "-duration"},
	} {
		err := checkFlags(c.clients, c.graphs, c.tasks, c.duration)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%+v rejected: %v", c, err)
		case c.flag == "":
			if bodies := makeBodies(c.graphs, c.tasks, 1); len(bodies) != c.graphs || len(bodies[0]) == 0 {
				t.Errorf("%+v: %d request bodies, want %d", c, len(bodies), c.graphs)
			}
		case err == nil:
			t.Errorf("%+v accepted, want a %s usage error", c, c.flag)
		case !strings.HasPrefix(err.Error(), c.flag+" "):
			t.Errorf("%+v: error %q does not name %s", c, err, c.flag)
		}
	}
}
