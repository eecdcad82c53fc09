// Command edgeschedd is the scheduling daemon: it loads one network
// topology at startup, builds a long-lived sched.Engine for a chosen
// algorithm, and serves scheduling requests over HTTP/JSON. Each worker
// slot owns one reusable scheduler state, whose route cache is warmed
// at startup — so steady-state requests pay only for the work that is
// genuinely theirs, and throughput scales with concurrent clients while
// every schedule stays bit-identical to a run on a fresh state
// (spot-checked at runtime via -self-check-every).
//
// Usage:
//
//	edgeschedd -topology net.json -algo OIHSA -addr :8080
//	edgeschedd -topology star:8 -addr 127.0.0.1:0 -addr-file port.txt
//
// -topology accepts either a topology JSON file or a builder spec —
// star:N, ring:N, line:N, fully:N, hypercube:D (unit speeds) — so
// smoke setups need no fixture files.
//
// Endpoints:
//
//	POST /schedule      task graph JSON in, schedule summary out
//	POST /schedule?full=1   full schedule JSON out (tasks, edges, routes)
//	GET  /stats         engine counters (requests, failures, cold states)
//	GET  /healthz       200 once serving
//
// /schedule answers 400 for a malformed or invalid graph (including one
// with a task no processor can finish in finite time), 413 for a body
// over maxBodyBytes, 500 when the engine's self-check fails or the
// reply cannot be encoded, and 503 when the engine is overloaded or
// draining.
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting,
// in-flight requests finish, then the process exits 0.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/dag"
	"repro/internal/graphio"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/verify"
)

func main() {
	var (
		topoPath  = flag.String("topology", "", "topology JSON file (required)")
		algo      = flag.String("algo", "OIHSA", "algorithm: BA, BA-EFT, OIHSA or BBSA (any case)")
		addr      = flag.String("addr", ":8080", "listen address (host:0 picks a free port)")
		addrFile  = flag.String("addr-file", "", "write the actual listen address to this file (for :0 discovery)")
		maxConc   = flag.Int("max-concurrent", 0, "max requests scheduled simultaneously (0 = GOMAXPROCS)")
		maxQueue  = flag.Int("max-queue", 256, "max requests waiting for a slot before 503 (0 = unbounded)")
		selfCheck = flag.Int("self-check-every", 1000, "re-run every Nth request cold and require bit-identical output (0 = off)")
		doVerify  = flag.Bool("verify", false, "run the full schedule validator on every response (slower)")
		rdTimeout = flag.Duration("read-timeout", 30*time.Second, "HTTP timeout for the headers, for the whole request, and for writing each reply")
	)
	flag.Parse()
	if *topoPath == "" {
		fatal(errors.New("-topology is required"))
	}

	topo, err := loadTopology(*topoPath)
	if err != nil {
		fatal(err)
	}

	ls, err := preset(*algo)
	if err != nil {
		fatal(err)
	}
	eng, err := sched.NewEngine(topo, sched.EngineOptions{
		Name:           ls.AlgorithmName,
		Opts:           ls.Opts,
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		WarmRoutes:     true,
		SelfCheckEvery: *selfCheck,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	srv := newHTTPServer(newServer(eng, *doVerify, *rdTimeout), *rdTimeout)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-stop
		fmt.Fprintln(os.Stderr, "edgeschedd: draining")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// edgelint:ignore errflow — shutdown timeout only abandons
		// stragglers; the engine drain below still waits for admitted work.
		srv.Shutdown(ctx)
		eng.Drain()
		close(done)
	}()

	fmt.Fprintf(os.Stderr, "edgeschedd: %s serving %s on %s (%d processors, %d links)\n",
		ls.AlgorithmName, *topoPath, ln.Addr(), topo.NumProcessors(), topo.NumLinks())
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-done
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "edgeschedd: drained after %d requests (%d failed)\n",
		st.Requests, st.Failures)
}

// newHTTPServer returns the daemon's HTTP server. readTimeout bounds
// the header read as well as the whole request, so a client that
// stalls inside its request line is disconnected as soon as one that
// stalls inside its body. Replies are bounded by newServer instead of
// WriteTimeout, whose deadline would also run through the queue wait
// and scheduling.
func newHTTPServer(h http.Handler, readTimeout time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadTimeout: readTimeout, ReadHeaderTimeout: readTimeout}
}

// loadTopology resolves -topology: a builder spec like "star:8"
// (unit speeds) or a topology JSON file.
func loadTopology(arg string) (*network.Topology, error) {
	if kind, nStr, ok := strings.Cut(arg, ":"); ok {
		if n, err := strconv.Atoi(nStr); err == nil {
			one := network.Uniform(1)
			switch kind {
			case "star":
				return network.Star(n, one, one), nil
			case "ring":
				return network.Ring(n, one, one), nil
			case "line":
				return network.Line(n, one, one), nil
			case "fully":
				return network.FullyConnected(n, one, one), nil
			case "hypercube":
				return network.Hypercube(n, one, one), nil
			default:
				return nil, fmt.Errorf("unknown topology spec %q (valid: star:N, ring:N, line:N, fully:N, hypercube:D, or a JSON file)", arg)
			}
		}
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	topo, err := graphio.ReadTopology(f)
	if err != nil {
		return nil, fmt.Errorf("reading topology %s: %w", arg, err)
	}
	return topo, nil
}

// preset resolves -algo through sched's name table. The engine runs
// list-scheduler presets only, so Classic and Classic+Replay are
// rejected.
func preset(name string) (*sched.ListScheduler, error) {
	a, err := sched.ByName(name)
	if ls, ok := a.(*sched.ListScheduler); ok {
		return ls, nil
	}
	if err == nil {
		err = fmt.Errorf("%s is not an engine preset", a.Name())
	}
	return nil, fmt.Errorf("%v (engine presets: BA, BA-EFT, OIHSA, BBSA)", err)
}

// scheduleResponse is the compact /schedule reply: the placement
// essentials without the per-link occupation detail of ?full=1.
type scheduleResponse struct {
	Algorithm string          `json:"algorithm"`
	Makespan  float64         `json:"makespan"`
	Tasks     []taskPlacement `json:"tasks"`
	Edges     int             `json:"edges_routed"`
}

type taskPlacement struct {
	Task   int     `json:"task"`
	Proc   int     `json:"proc"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

// maxBodyBytes bounds a /schedule request body. A graph in graphio JSON
// costs ~40 bytes per task or edge, so the limit admits graphs of
// ~200k tasks and edges, far past what one request should schedule.
const maxBodyBytes = 8 << 20

// scheduler is what the handler needs of a *sched.Engine; tests
// substitute stubs to reach the error classes a healthy engine never
// returns.
type scheduler interface {
	Schedule(g *dag.Graph) (*sched.Schedule, error)
	Stats() sched.EngineStats
}

// newServer wires the engine into an HTTP handler. Split from main so
// the daemon's behaviour is testable with httptest. replyTimeout, when
// positive, bounds the write of each reply, so a client that stops
// reading a large ?full=1 reply is disconnected and its handler
// goroutine and pooled buffer are released.
func newServer(eng scheduler, verifyEach bool, replyTimeout time.Duration) http.Handler {
	// The pool holds reply buffers reused across requests, so a ?full=1
	// reply of several hundred KB is encoded without growing a fresh
	// buffer each time.
	rp := &replier{bufs: sync.Pool{New: func() any { return new([]byte) }}, timeout: replyTimeout}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		rp.json(w, eng.Stats())
	})
	mux.HandleFunc("/schedule", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a task graph JSON", http.StatusMethodNotAllowed)
			return
		}
		g, err := graphio.ReadGraph(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "bad graph: "+err.Error(), code)
			return
		}
		s, err := eng.Schedule(g)
		if err != nil {
			code := statusOf(err)
			if code == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
			}
			http.Error(w, err.Error(), code)
			return
		}
		if verifyEach {
			if res := verify.Verify(s); !res.OK() {
				http.Error(w, "schedule failed verification: "+res.Err().Error(),
					http.StatusInternalServerError)
				return
			}
		}
		if r.URL.Query().Get("full") != "" {
			rp.reply(w, func(b []byte) ([]byte, error) { return trace.AppendScheduleJSON(b, s) })
			return
		}
		resp := scheduleResponse{Algorithm: s.Algorithm, Makespan: s.Makespan,
			Tasks: make([]taskPlacement, len(s.Tasks))}
		for i, tp := range s.Tasks {
			resp.Tasks[i] = taskPlacement{Task: int(tp.Task), Proc: int(tp.Proc),
				Start: tp.Start, Finish: tp.Finish}
		}
		for _, es := range s.Edges {
			if es != nil {
				resp.Edges++
			}
		}
		rp.json(w, resp)
	})
	return mux
}

// statusOf maps engine errors to HTTP statuses: overload and drain are
// the retryable 503s (sent with Retry-After: 1), a failed self-check is
// the server's fault (500), and everything else is the client's graph
// (400).
func statusOf(err error) int {
	switch {
	case errors.Is(err, sched.ErrOverloaded), errors.Is(err, sched.ErrEngineClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, sched.ErrSelfCheck):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// replier writes JSON replies from pooled buffers, each write bounded
// by timeout when it is positive.
type replier struct {
	bufs    sync.Pool
	timeout time.Duration
}

// json replies with v encoded by encoding/json.
func (rp *replier) json(w http.ResponseWriter, v any) {
	rp.reply(w, func(b []byte) ([]byte, error) {
		buf := bytes.NewBuffer(b)
		err := json.NewEncoder(buf).Encode(v)
		return buf.Bytes(), err
	})
}

// reply encodes a JSON body into a pooled buffer with encode, which
// appends to the slice it is given, and writes it with one Write. The
// body is complete before any byte goes out, so an encoding error still
// answers 500. The write deadline is set just before the Write, so it
// bounds the reply alone: the request read, the queue wait and
// scheduling do not count against it. net/http clears it once the
// response is finished, so it does not carry over to the next request
// on a keep-alive connection.
func (rp *replier) reply(w http.ResponseWriter, encode func([]byte) ([]byte, error)) {
	bp := rp.bufs.Get().(*[]byte)
	defer rp.bufs.Put(bp)
	b, err := encode((*bp)[:0])
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	*bp = b
	w.Header().Set("Content-Type", "application/json")
	if rp.timeout > 0 {
		// edgelint:ignore errflow — a writer without deadlines still
		// gets the reply, unbounded, as with a zero timeout.
		http.NewResponseController(w).SetWriteDeadline(time.Now().Add(rp.timeout))
	}
	// edgelint:ignore errflow — a write error means the client went
	// away or stalled past the deadline; nothing useful can be
	// reported to it.
	w.Write(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "edgeschedd:", err)
	os.Exit(1)
}
