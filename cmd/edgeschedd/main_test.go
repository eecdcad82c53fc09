package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/graphio"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/verify"
)

func testEngine(t *testing.T) *sched.Engine {
	t.Helper()
	topo := network.Star(4, network.Uniform(1), network.Uniform(1))
	eng, err := sched.NewEngine(topo, sched.EngineOptions{
		Name: "OIHSA", Opts: sched.NewOIHSA().Opts, SelfCheckEvery: 1,
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
	srv := httptest.NewServer(newServer(eng, true, 0))
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
	srv := httptest.NewServer(newServer(eng, false, 0))
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

// TestFullRepliesConcurrent pins the pooled reply buffers: replies
// encoded at once by concurrent requests each carry exactly their own
// schedule's document, the bytes trace.WriteScheduleJSON gives for a
// cold run of the same graph.
func TestFullRepliesConcurrent(t *testing.T) {
	eng := testEngine(t)
	srv := httptest.NewServer(newServer(eng, false, 0))
	defer srv.Close()
	topo := network.Star(4, network.Uniform(1), network.Uniform(1))

	const clients, perClient = 8, 4
	bodies := make([][]byte, clients)
	wants := make([][]byte, clients)
	for c := range bodies {
		var g *dag.Graph
		bodies[c], g = testGraphJSON(t, int64(20+c))
		s, err := sched.NewOIHSA().Schedule(g, topo)
		if err != nil {
			t.Fatal(err)
		}
		if res := verify.Verify(s); !res.OK() {
			t.Fatal(res.Err())
		}
		var want bytes.Buffer
		if err := trace.WriteScheduleJSON(&want, s); err != nil {
			t.Fatal(err)
		}
		wants[c] = want.Bytes()
	}
	var wg sync.WaitGroup
	for c := range bodies {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(srv.URL+"/schedule?full=1", "application/json", bytes.NewReader(bodies[c]))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, wants[c]) {
					t.Errorf("client %d request %d: status %d, err %v, body differs from the cold run's document",
						c, i, resp.StatusCode, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestBadRequests pins the error mapping: malformed and invalid graphs
// are the client's fault (400), never a daemon crash. A body holding
// two graphs is malformed too, rather than a schedule of the first.
func TestBadRequests(t *testing.T) {
	eng := testEngine(t)
	srv := httptest.NewServer(newServer(eng, false, 0))
	defer srv.Close()

	first, _ := testGraphJSON(t, 1)
	second, _ := testGraphJSON(t, 2)
	for name, body := range map[string]string{
		"malformed":  "{not json",
		"cyclic":     `{"tasks":[{"name":"a","cost":1},{"name":"b","cost":1}],"edges":[{"from":0,"to":1,"cost":1},{"from":1,"to":0,"cost":1}]}`,
		"two graphs": string(first) + string(second),
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

// stubEngine answers every request with one fixed schedule or error.
type stubEngine struct {
	s   *sched.Schedule
	err error
}

func (s stubEngine) Schedule(*dag.Graph) (*sched.Schedule, error) { return s.s, s.err }
func (s stubEngine) Stats() sched.EngineStats                     { return sched.EngineStats{} }

// TestStatusClasses pins the /schedule error classes: an invalid graph
// is the client's fault (400), a failed engine self-check or a panic
// the engine contained the server's (500), and overload or drain a
// retryable 503 carrying Retry-After.
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
		"self-check":    {stubEngine{err: fmt.Errorf("%w: schedule diverged from cold run", sched.ErrSelfCheck)}, body, http.StatusInternalServerError},
		"panic":         {stubEngine{err: fmt.Errorf("%w: panic: planted", sched.ErrInternal)}, body, http.StatusInternalServerError},
		"overloaded":    {stubEngine{err: sched.ErrOverloaded}, body, http.StatusServiceUnavailable},
		"draining":      {drained, body, http.StatusServiceUnavailable},
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(newServer(c.eng, false, 0))
			defer srv.Close()
			resp, err := http.Post(srv.URL+"/schedule", "application/json", bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.want)
			}
			wantRetry := ""
			if c.want == http.StatusServiceUnavailable {
				wantRetry = "1"
			}
			if got := resp.Header.Get("Retry-After"); got != wantRetry {
				t.Fatalf("Retry-After %q, want %q", got, wantRetry)
			}
		})
	}
}

// TestUnplaceableTaskIs400 pins that a graph whose task cannot finish
// in finite time on the daemon's topology is the client's 400, not a
// dropped connection: a cost of 1e300 on processors of speed 1e-10.
func TestUnplaceableTaskIs400(t *testing.T) {
	slow := network.Star(4, network.Uniform(1e-10), network.Uniform(1))
	body := []byte(`{"tasks":[{"name":"a","cost":1},{"name":"b","cost":1e300}],"edges":[{"from":0,"to":1,"cost":1}]}`)
	for _, algo := range []string{"BA", "BBSA"} {
		ls, err := preset(algo)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sched.NewEngine(slow, sched.EngineOptions{Name: ls.AlgorithmName, Opts: ls.Opts})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Drain()
		srv := httptest.NewServer(newServer(eng, false, 0))
		defer srv.Close()
		for _, path := range []string{"/schedule", "/schedule?full=1"} {
			resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s %s: %v", algo, path, err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "no finite finish time") {
				t.Fatalf("%s %s: status %d %q, want 400 naming the unplaceable task", algo, path, resp.StatusCode, msg)
			}
		}
	}
}

// TestEncodeFailureIs500 pins that a schedule the encoder rejects (a
// NaN time) answers 500 with the encoding error, on both reply shapes,
// instead of a 200 with an empty body.
func TestEncodeFailureIs500(t *testing.T) {
	_, g := testGraphJSON(t, 9)
	s, err := sched.NewBA().Schedule(g, network.Star(4, network.Uniform(1), network.Uniform(1)))
	if err != nil {
		t.Fatal(err)
	}
	s.Tasks[0].Finish = math.NaN()
	body, _ := testGraphJSON(t, 9)
	srv := httptest.NewServer(newServer(stubEngine{s: s}, false, 0))
	defer srv.Close()
	for _, path := range []string{"/schedule", "/schedule?full=1"} {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(msg), "unsupported value: NaN") {
			t.Fatalf("%s: status %d %q, want 500 with the encoding error", path, resp.StatusCode, msg)
		}
	}
}

// TestOversizedBody pins the request bound: a body past maxBodyBytes is
// refused with 413 before the engine sees it.
func TestOversizedBody(t *testing.T) {
	eng := testEngine(t)
	srv := httptest.NewServer(newServer(eng, false, 0))
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
	if got := resp.Header.Get("Retry-After"); got != "" {
		t.Fatalf("413 carries Retry-After %q; only 503s are retryable", got)
	}
	if st := eng.Stats(); st.Requests != 0 {
		t.Fatalf("oversized body reached the engine: %+v", st)
	}
}

// TestStatsEndpoint pins that the counters are served and move.
func TestStatsEndpoint(t *testing.T) {
	eng := testEngine(t)
	srv := httptest.NewServer(newServer(eng, false, 0))
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

// TestPreset pins -algo resolution: the four engine presets resolve in
// any case, and an algorithm the engine cannot run (Classic) or an
// unknown name is rejected with the presets listed.
func TestPreset(t *testing.T) {
	for name, want := range map[string]string{
		"OIHSA": "OIHSA", "bbsa": "BBSA", "BASinnen": "BA-EFT", "basinnen": "BA-EFT", "ba": "BA",
	} {
		ls, err := preset(name)
		if err != nil || ls.Name() != want {
			t.Errorf("preset(%q) = %v, %v; want %s", name, ls, err, want)
		}
	}
	for _, name := range []string{"DLS", "cpop", "Classic", "nope"} {
		_, err := preset(name)
		if err == nil {
			t.Errorf("preset(%q) accepted", name)
			continue
		}
		for _, p := range []string{"BA", "BA-EFT", "OIHSA", "BBSA"} {
			if !strings.Contains(err.Error(), p) {
				t.Errorf("preset(%q) error %q does not list %s", name, err, p)
			}
		}
	}
}

// TestLoadTopologySpecSizes pins the builder specs' size bounds: the
// smallest size of each kind loads, and a size that builds no topology
// is an error, not a panic. The out-of-range hypercube is rejected
// before any builder runs at that size.
func TestLoadTopologySpecSizes(t *testing.T) {
	for spec, procs := range map[string]int{"star:1": 1, "ring:1": 1, "line:1": 1, "fully:1": 1, "hypercube:0": 1} {
		if top, err := loadTopology(spec); err != nil || top.NumProcessors() != procs {
			t.Errorf("loadTopology(%q) = %v, %v; want %d processors", spec, top, err, procs)
		}
	}
	for _, spec := range []string{"star:0", "ring:-1", "line:0", "fully:0", "hypercube:-1", "hypercube:27", "hypercube:64", "mesh:0"} {
		if top, err := loadTopology(spec); err == nil {
			t.Errorf("loadTopology(%q) = %v, want an error", spec, top)
		}
	}
}

// TestStalledRequestLineIsDisconnected pins the header read timeout: a
// client that sends half a request line and then stalls is
// disconnected once the read timeout passes (net/http may first write
// an error status).
func TestStalledRequestLineIsDisconnected(t *testing.T) {
	const timeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(newServer(testEngine(t), false, timeout), timeout)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /sche"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// The client-side deadline only bounds the test: a server that never
	// times out shows up as a deadline error, not as a hang.
	if err := conn.SetReadDeadline(start.Add(timeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	waited := time.Since(start)
	if err != nil {
		t.Fatalf("read %q, then %v after %v; want the server to close the connection", reply, err, waited)
	}
	if bytes.HasPrefix(reply, []byte("HTTP/1.1 2")) {
		t.Fatalf("server replied %q to half a request line", reply)
	}
	if waited < timeout/2 {
		t.Fatalf("server closed after %v, before the %v timeout", waited, timeout)
	}
}

// smallSendBuffers shrinks every accepted connection's send buffer, so a
// reply of a few MB cannot sit in the kernel while the client reads
// nothing.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		if err := tc.SetWriteBuffer(8 << 10); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, err
}

// TestStalledReplyIsDisconnected pins the reply timeout: a client that
// posts a large ?full=1 request and never reads the reply, which is far
// larger than the socket buffers, is disconnected once the timeout
// passes, before the whole reply has gone out. Without the timeout the
// handler would block in Write for as long as the client stays.
func TestStalledReplyIsDisconnected(t *testing.T) {
	const timeout = 500 * time.Millisecond
	topo := network.Star(4, network.Uniform(1), network.Uniform(1))
	eng, err := sched.NewEngine(topo, sched.EngineOptions{Name: "BBSA", Opts: sched.NewBBSA().Opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Drain)
	g := dag.RandomLayered(rand.New(rand.NewSource(3)), dag.RandomLayeredParams{
		Tasks:    1000,
		TaskCost: dag.CostDist{Lo: 1, Hi: 40},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 150},
	})
	var body bytes.Buffer
	if err := graphio.WriteGraph(&body, g); err != nil {
		t.Fatal(err)
	}
	s, err := sched.NewBBSA().Schedule(g, topo)
	if err != nil {
		t.Fatal(err)
	}
	full, err := trace.AppendScheduleJSON(nil, s)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(newServer(eng, false, timeout), timeout)
	go srv.Serve(smallSendBuffers{ln})
	t.Cleanup(func() { srv.Close() })

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := c.(*net.TCPConn)
	defer conn.Close()
	if err := conn.SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /schedule?full=1 HTTP/1.1\r\nHost: edgeschedd\r\n"+
		"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n", body.Len())
	if _, err := conn.Write(body.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Read nothing until the timeout has passed, with time to spare for
	// scheduling the graph (tens of milliseconds), then drain what the
	// server sent.
	time.Sleep(timeout + time.Second)
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("read %d bytes, then the connection stayed open; want the server to close it", len(got))
	}
	if len(got) >= len(full) {
		t.Fatalf("received %d bytes, the whole %d-byte reply; want the write cut off by the timeout",
			len(got), len(full))
	}
}

// slowEngine answers with a fixed schedule after a delay.
type slowEngine struct {
	stubEngine
	delay time.Duration
}

func (s slowEngine) Schedule(g *dag.Graph) (*sched.Schedule, error) {
	time.Sleep(s.delay)
	return s.stubEngine.Schedule(g)
}

// TestSlowScheduleIsAnswered pins that the reply timeout bounds the
// write alone: a request whose scheduling takes longer than the timeout
// still gets its whole reply, compact and ?full=1, and a bad request
// that follows on the same keep-alive connection after a wait past the
// timeout gets its error status. (A POST, because the client would
// quietly retry a failed GET on a fresh connection.)
func TestSlowScheduleIsAnswered(t *testing.T) {
	const timeout = 200 * time.Millisecond
	body, g := testGraphJSON(t, 5)
	s, err := sched.NewBBSA().Schedule(g, network.Star(4, network.Uniform(1), network.Uniform(1)))
	if err != nil {
		t.Fatal(err)
	}
	full, err := trace.AppendScheduleJSON(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(newServer(slowEngine{stubEngine{s: s}, 2 * timeout}, false, timeout), timeout)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	for _, path := range []string{"/schedule?full=1", "/schedule"} {
		resp, err := client.Post("http://"+ln.Addr().String()+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, read error %v", path, resp.StatusCode, err)
		}
		if path == "/schedule?full=1" && !bytes.Equal(got, full) {
			t.Fatalf("%s: reply of %d bytes differs from the %d-byte encoding", path, len(got), len(full))
		}
		// Idle past the timeout before the next request on this
		// connection, so a deadline left over from this reply would
		// cut off the next one that does not set its own.
		time.Sleep(2 * timeout)
	}
	resp, err := client.Post("http://"+ln.Addr().String()+"/schedule", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatalf("bad graph after the replies: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad graph after the replies: status %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
}
