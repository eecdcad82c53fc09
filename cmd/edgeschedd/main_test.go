package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/graphio"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/verify"
)

func testEngine(t *testing.T) *sched.Engine {
	t.Helper()
	topo := network.Star(4, network.Uniform(1), network.Uniform(1))
	eng, err := sched.NewEngine(topo, sched.EngineOptions{
		Name: "OIHSA", Opts: sched.NewOIHSA().Opts, WarmRoutes: true, SelfCheckEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Drain)
	return eng
}

func testGraphJSON(t *testing.T, seed int64) ([]byte, *dag.Graph) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    18,
		TaskCost: dag.CostDist{Lo: 1, Hi: 40},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 150},
	})
	var buf bytes.Buffer
	if err := graphio.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), g
}

// TestScheduleEndpoint pins the daemon's round trip: a posted graph
// comes back scheduled, with the same makespan the engine produces
// directly (the handler is a transport, not a policy layer), and the
// verifier accepts the direct run.
func TestScheduleEndpoint(t *testing.T) {
	eng := testEngine(t)
	srv := httptest.NewServer(newServer(eng, true))
	defer srv.Close()

	body, g := testGraphJSON(t, 5)
	resp, err := http.Post(srv.URL+"/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got scheduleResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}

	want, err := eng.Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	if res := verify.Verify(want); !res.OK() {
		t.Fatalf("invalid schedule: %v", res)
	}
	// edgelint:ignore floateq — same engine, same graph: bit-identical
	if got.Makespan != want.Makespan {
		t.Fatalf("served makespan %v, engine makespan %v", got.Makespan, want.Makespan)
	}
	if len(got.Tasks) != len(want.Tasks) {
		t.Fatalf("%d tasks served, %d scheduled", len(got.Tasks), len(want.Tasks))
	}
	for i, tp := range want.Tasks {
		g := got.Tasks[i]
		// edgelint:ignore floateq — bit-identical round trip
		if g.Task != int(tp.Task) || g.Proc != int(tp.Proc) || g.Start != tp.Start || g.Finish != tp.Finish {
			t.Fatalf("task %d served %+v, scheduled %+v", i, g, tp)
		}
	}
}

// TestScheduleEndpointFull pins the ?full=1 variant: the complete
// schedule JSON parses and carries per-edge placements.
func TestScheduleEndpointFull(t *testing.T) {
	eng := testEngine(t)
	srv := httptest.NewServer(newServer(eng, false))
	defer srv.Close()

	body, _ := testGraphJSON(t, 6)
	resp, err := http.Post(srv.URL+"/schedule?full=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var full map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tasks", "makespan"} {
		if _, ok := full[key]; !ok {
			t.Fatalf("full schedule JSON missing %q (has %v)", key, keys(full))
		}
	}
}

func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestBadRequests pins the error mapping: malformed and invalid graphs
// are the client's fault (400), never a daemon crash.
func TestBadRequests(t *testing.T) {
	eng := testEngine(t)
	srv := httptest.NewServer(newServer(eng, false))
	defer srv.Close()

	for name, body := range map[string]string{
		"malformed": "{not json",
		"cyclic":    `{"tasks":[{"name":"a","cost":1},{"name":"b","cost":1}],"edges":[{"from":0,"to":1,"cost":1},{"from":1,"to":0,"cost":1}]}`,
	} {
		resp, err := http.Post(srv.URL+"/schedule", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s graph: status %d, want 400", name, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /schedule: status %d, want 405", resp.StatusCode)
	}
}

// stubEngine answers every request with one fixed error.
type stubEngine struct{ err error }

func (s stubEngine) Schedule(*dag.Graph) (*sched.Schedule, error) { return nil, s.err }
func (s stubEngine) Stats() sched.EngineStats                     { return sched.EngineStats{} }

// TestStatusClasses pins the /schedule error classes: an invalid graph
// is the client's fault (400), a failed engine self-check the server's
// (500), and overload or drain a retryable 503.
func TestStatusClasses(t *testing.T) {
	body, _ := testGraphJSON(t, 8)
	cyclic := []byte(`{"tasks":[{"name":"a","cost":1},{"name":"b","cost":1}],"edges":[{"from":0,"to":1,"cost":1},{"from":1,"to":0,"cost":1}]}`)
	drained := testEngine(t)
	drained.Drain()
	for name, c := range map[string]struct {
		eng  scheduler
		body []byte
		want int
	}{
		"invalid graph": {testEngine(t), cyclic, http.StatusBadRequest},
		"self-check":    {stubEngine{fmt.Errorf("%w: schedule diverged from cold run", sched.ErrSelfCheck)}, body, http.StatusInternalServerError},
		"overloaded":    {stubEngine{sched.ErrOverloaded}, body, http.StatusServiceUnavailable},
		"draining":      {drained, body, http.StatusServiceUnavailable},
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(newServer(c.eng, false))
			defer srv.Close()
			resp, err := http.Post(srv.URL+"/schedule", "application/json", bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.want)
			}
		})
	}
}

// TestOversizedBody pins the request bound: a body past maxBodyBytes is
// refused with 413 before the engine sees it.
func TestOversizedBody(t *testing.T) {
	eng := testEngine(t)
	srv := httptest.NewServer(newServer(eng, false))
	defer srv.Close()

	body := `{"tasks":[{"name":"` + strings.Repeat("a", maxBodyBytes) + `","cost":1}],"edges":[]}`
	resp, err := http.Post(srv.URL+"/schedule", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if st := eng.Stats(); st.Requests != 0 {
		t.Fatalf("oversized body reached the engine: %+v", st)
	}
}

// TestStatsEndpoint pins that the counters are served and move.
func TestStatsEndpoint(t *testing.T) {
	eng := testEngine(t)
	srv := httptest.NewServer(newServer(eng, false))
	defer srv.Close()

	body, _ := testGraphJSON(t, 7)
	resp, err := http.Post(srv.URL+"/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st sched.EngineStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.Failures != 0 {
		t.Fatalf("stats after one request: %+v", st)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}
