package graphio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
)

// graphQuirks are bodies on the edges of encoding/json's accept set:
// each must be accepted or rejected as the reference decides, and an
// accepted one must decode to the reference's graph bit for bit.
var graphQuirks = []string{
	// Keys match under Unicode case folding, escaped or not: ſ folds
	// to s, the Kelvin sign to k.
	`{"TASKS":[{"Name":"a","COST":1}],"Edges":[]}`,
	`{"taſks":[{"name":"a","coſt":1}]}`,
	`{"tasKs":[{"name":"a","cost":1}]}`,
	`{"tasks":[{"name":"a","\u0063ost":1}],"\u0065dges":[],"ta\u017fks":[{"n\u0041me":"b"}]}`,
	`{"tasks":[{"name":"a","cost":1},{"nAme":"b","cost":2}],"edges":[{"from":0,"to":1,"cost":3}]}`,
	`{"tasks":[],"extra":1}`,
	// The last of repeated keys wins; a repeated array decodes element
	// by element over the previous one; null leaves a scalar alone.
	`{"tasks":[{"name":"a","cost":5,"cost":null,"name":"b"}]}`,
	`{"tasks":[{"name":"a","cost":1},{"name":"b","cost":2}],"tasks":[{"name":"c"}]}`,
	`{"tasks":[{"name":"a","cost":1},{"name":"b","cost":2}],"tasks":[{"name":"c"}],"tasks":[{},{}]}`,
	`{"tasks":[{"name":"a","cost":1}],"tasks":[],"tasks":[{}]}`,
	`{"tasks":[{"name":"a","cost":1}],"tasks":null,"tasks":[{}]}`,
	`{"tasks":[null,{"name":"b","cost":1},null],"edges":[null]}`,
	`{"tasks":[null,{"name":"b","cost":1},null]}`,
	`{"tasks":null,"edges":null}`,
	`null`,
	` {} `,
	// Edges before tasks, -0, integers only in int fields.
	`{"edges":[{"from":1,"to":0,"cost":-0}],"tasks":[{"name":"a","cost":-0},{"name":"b","cost":0.5e1}]}`,
	`{"tasks":[{"name":"a","cost":1},{"name":"b","cost":1}],"edges":[{"from":-0,"to":1,"cost":1}]}`,
	`{"tasks":[{"name":"a","cost":1},{"name":"b","cost":1}],"edges":[{"from":0,"to":1e0,"cost":1}]}`,
	`{"tasks":[{"name":"a","cost":1},{"name":"b","cost":1}],"edges":[{"from":0,"to":1.0,"cost":1}]}`,
	`{"tasks":[{"name":"a","cost":1}],"edges":[{"from":0,"to":99999999999999999999,"cost":1}]}`,
	`{"tasks":[{"name":"a","cost":1e400}]}`,
	`{"tasks":[{"name":"a","cost":1e-400}]}`,
	`{"tasks":[{"name":"a","cost":01}]}`,
	`{"tasks":[{"name":"a","cost":+1}]}`,
	`{"tasks":[{"name":"a","cost":.5}]}`,
	`{"tasks":[{"name":"a","cost":"1"}]}`,
	`{"tasks":[{"name":1,"cost":1}]}`,
	`{"tasks":[{"name":"a","cost":true}]}`,
	`{"tasks":{}}`,
	`{"tasks":[[]]}`,
	`[]`,
	`"tasks"`,
	// Strings: invalid UTF-8 and lone surrogates become U+FFFD, a raw
	// control character is an error, escapes decode.
	"{\"tasks\":[{\"name\":\"a\xff\xfe\",\"cost\":1}]}",
	`{"tasks":[{"name":"\ud800 \udc00 😀","cost":1}]}`,
	"{\"tasks\":[{\"name\":\"a\x01\",\"cost\":1}]}",
	`{"tasks":[{"name":"\"\\\/\b\f\n\r\té\u0001","cost":1}]}`,
	`{"tasks":[{"name":"\x","cost":1}]}`,
	`{"tasks":[{"name":"\u12g4","cost":1}]}`,
	// A BOM, empty input, a truncated body, trailing data.
	"\xef\xbb\xbf{\"tasks\":[]}",
	``,
	"  \n\t",
	`{"tasks":[{"name":"a","cost":1}],"edges":[{"from":0,`,
	`{"tasks":[],"edges":[]} garbage`,
	`{"tasks":[{"name":"a","cost":1}]} {"tasks":[{"name":"b","cost":2}]}`,
	`{"tasks":[]}]`,
	`{"tasks":[],}`,
	`{"tasks":[{"name":"a","cost":1},]}`,
	`nul`,
	`nulll`,
}

// FuzzReadGraph checks ReadGraph against the encoding/json reference:
// both accept or both reject, and accepted graphs are bit-identical.
// Every accepted graph also round-trips.
func FuzzReadGraph(f *testing.F) {
	f.Add(`{"tasks":[{"name":"a","cost":1},{"name":"b","cost":2}],"edges":[{"from":0,"to":1,"cost":3}]}`)
	f.Add(`{"tasks":[],"edges":[]}`)
	f.Add(`{"tasks":[{"name":"x","cost":0}],"edges":[]}`)
	for _, in := range graphQuirks {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkCutRead(t, in, func(r io.Reader) error { _, err := ReadGraph(r); return err })
		g, err := ReadGraph(strings.NewReader(in))
		want, wantErr := referenceReadGraph(strings.NewReader(in))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadGraph error %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if err := sameGraph(g, want); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			t.Fatalf("cannot re-serialize accepted graph: %v", err)
		}
		g2, err := ReadGraph(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if err := sameGraph(g2, g); err != nil {
			t.Fatalf("round trip: %v", err)
		}
	})
}

var topologyQuirks = []string{
	`{"NODES":[{"Name":"a","KIND":"processor","Speed":1},{"name":"b","kind":"processor","speed":2}],"Links":[{"From":0,"TO":1,"Duplex":true,"SPEED":1}]}`,
	`{"nodes":[{"name":"a","kind":"processor","ſpeed":1},{"name":"b","Kind":"processor","speed":1}],"links":[{"from":0,"to":1,"speed":1}]}`,
	`{"nodes":[{"name":"a","Kind":"processor","speed":1},{"name":"b","\u212aind":"switch"}],"links":[{"\u0066rom":0,"to":1,"duplex":true,"speed":1}]}`,
	`{"nodes":[{"name":"a","kind":"processor","speed":1},{"name":"b","kind":"processor","speed":1}],"links":[{"from":1,"to":0,"duplex":true,"speed":1}]}`,
	// Repeated keys and arrays, null elements and fields.
	`{"nodes":[{"name":"a","kind":"processor","speed":1},{"name":"b","kind":"processor","speed":1},{"name":"c","kind":"processor","speed":1}],"links":[{"members":[0,1,2],"members":[null,null],"speed":1,"speed":null}]}`,
	`{"nodes":[{"name":"a","kind":"processor","speed":1},{"name":"b","kind":"processor","speed":1}],"links":[{"from":0,"to":1,"duplex":true,"duplex":null,"speed":1}],"links":[{"from":1,"to":0}]}`,
	`{"nodes":[{"name":"a","kind":"processor","speed":1},{"name":"b","kind":"processor","speed":1}],"links":[{"members":[0,1],"speed":1},{"members":[1,0],"speed":2}],"links":[{"members":[1]}],"links":[{},{}]}`,
	`{"nodes":[{"name":"a","kind":"processor","speed":1},null,{"name":"c","kind":"switch"}],"links":[{"members":[0,1,2],"members":[],"speed":1}]}`,
	`{"links":[{"from":0,"to":1,"speed":1,"duplex":false}],"nodes":[{"name":"a","kind":"processor","speed":1},{"name":"b","kind":"processor","speed":1}],"nodes":[{},{"kind":"switch"}]}`,
	`{"nodes":null,"links":null}`,
	`null`,
	// Wrong types and number syntax.
	`{"nodes":[{"name":"a","kind":"processor","speed":1},{"name":"b","kind":"processor","speed":1}],"links":[{"from":0,"to":1,"duplex":1,"speed":1}]}`,
	`{"nodes":[{"name":"a","kind":"processor","speed":1},{"name":"b","kind":"processor","speed":1}],"links":[{"from":0,"to":1,"duplex":"true","speed":1}]}`,
	`{"nodes":[{"name":"a","kind":"processor","speed":1},{"name":"b","kind":"processor","speed":1}],"links":[{"members":"01","speed":1}]}`,
	`{"nodes":[{"name":"a","kind":"processor","speed":1},{"name":"b","kind":"processor","speed":1}],"links":[{"members":[0,1.5],"speed":1}]}`,
	`{"nodes":[{"name":"a","kind":"processor","speed":1},{"name":"b","kind":"processor","speed":1}],"links":[{"members":[0,-0,1],"speed":-0}]}`,
	`{"nodes":[{"name":"a","kind":"processor","speed":1e400}],"links":[]}`,
	`{"nodes":[{"name":"a","kind":"processor","speed":1}],"links":[]}`,
	`{"nodes":[{"name":"a","kind":"PROCESSOR","speed":1}],"links":[]}`,
	// A BOM, empty input, a truncated body, trailing data.
	"\xef\xbb\xbf{\"nodes\":[],\"links\":[]}",
	``,
	`{"nodes":[{"name":"a","kind":"processor","speed":1}],"links":[`,
	`{"nodes":[{"name":"a","kind":"processor","speed":1}],"links":[]} junk`,
	`{"nodes":[{"name":"a","kind":"processor","speed":1}],"links":[]}{}`,
}

// FuzzReadTopology checks ReadTopology against the encoding/json
// reference, as FuzzReadGraph does ReadGraph.
func FuzzReadTopology(f *testing.F) {
	f.Add(`{"nodes":[{"name":"a","kind":"processor","speed":1},
		{"name":"b","kind":"processor","speed":2}],
		"links":[{"from":0,"to":1,"duplex":true,"speed":1}]}`)
	f.Add(`{"nodes":[{"name":"a","kind":"processor","speed":1},
		{"name":"b","kind":"processor","speed":1},
		{"name":"c","kind":"processor","speed":1}],
		"links":[{"members":[0,1,2],"speed":2}]}`)
	// One way only: b cannot reach a.
	f.Add(`{"nodes":[{"name":"a","kind":"processor","speed":1},
		{"name":"b","kind":"processor","speed":1}],
		"links":[{"from":0,"to":1,"speed":1}]}`)
	for _, in := range topologyQuirks {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkCutRead(t, in, func(r io.Reader) error { _, err := ReadTopology(r); return err })
		top, err := ReadTopology(strings.NewReader(in))
		want, wantErr := referenceReadTopology(strings.NewReader(in))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadTopology error %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if err := sameTopology(top, want); err != nil {
			t.Fatal(err)
		}
		checkProcessorRoutes(t, top)
		var buf bytes.Buffer
		if err := WriteTopology(&buf, top); err != nil {
			t.Fatalf("cannot re-serialize accepted topology: %v", err)
		}
		top2, err := ReadTopology(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if top2.NumNodes() != top.NumNodes() || top2.NumLinks() != top.NumLinks() {
			t.Fatal("round trip changed the topology")
		}
	})
}

var errCut = errors.New("connection cut")

// checkCutRead feeds read the first half of in and then a read error.
// The read must fail. Where encoding/json fails before the first value
// is complete, the failure must be of the same class: the reader's
// error (wrapped) if what came before it was a valid start, a syntax
// error otherwise.
func checkCutRead(t *testing.T, in string, read func(io.Reader) error) {
	t.Helper()
	cut := func() io.Reader { return io.MultiReader(strings.NewReader(in[:len(in)/2]), cutReader{}) }
	err := read(cut())
	if err == nil {
		t.Fatal("accepted a body cut by a read error")
	}
	wantErr := json.NewDecoder(cut()).Decode(new(any))
	var syntax *json.SyntaxError
	if errors.As(wantErr, &syntax) || errors.Is(wantErr, errCut) {
		if errors.Is(err, errCut) != errors.Is(wantErr, errCut) {
			t.Fatalf("cut body: error %v, reference %v", err, wantErr)
		}
	}
}

type cutReader struct{}

func (cutReader) Read([]byte) (int, error) { return 0, errCut }

// sameGraph reports the first difference between two graphs, comparing
// costs bit for bit and adjacency in order.
func sameGraph(a, b *dag.Graph) error {
	if a.NumTasks() != b.NumTasks() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("shape %v, want %v", a, b)
	}
	for i, t := range a.Tasks() {
		u := b.Tasks()[i]
		if t.ID != u.ID || t.Name != u.Name || math.Float64bits(t.Cost) != math.Float64bits(u.Cost) {
			return fmt.Errorf("task %d is %+v, want %+v", i, t, u)
		}
		id := dag.TaskID(i)
		if !slices.Equal(a.Pred(id), b.Pred(id)) || !slices.Equal(a.Succ(id), b.Succ(id)) {
			return fmt.Errorf("task %d adjacency differs", i)
		}
	}
	for i, e := range a.Edges() {
		f := b.Edges()[i]
		if e.ID != f.ID || e.From != f.From || e.To != f.To || math.Float64bits(e.Cost) != math.Float64bits(f.Cost) {
			return fmt.Errorf("edge %d is %+v, want %+v", i, e, f)
		}
	}
	return nil
}

// checkProcessorRoutes is an oracle for Build's reachability check that
// shares none of its code: every ordered pair of processors must get a
// BFS route that ValidateRoute accepts.
func checkProcessorRoutes(t *testing.T, top *network.Topology) {
	t.Helper()
	router := top.NewRouter(nil)
	for i := range top.NumProcessors() {
		for j := range top.NumProcessors() {
			src, dst := top.Processor(i), top.Processor(j)
			route, err := router.BFSRoute(src, dst)
			if err == nil {
				err = top.ValidateRoute(src, dst, route)
			}
			if err != nil {
				t.Fatalf("accepted topology routes processor %d to %d: %v", src, dst, err)
			}
		}
	}
}

// sameTopology reports the first difference between two topologies,
// comparing speeds bit for bit. Links carry the adjacency: Build derives
// it from them in ID order.
func sameTopology(a, b *network.Topology) error {
	if a.NumNodes() != b.NumNodes() || a.NumLinks() != b.NumLinks() || a.NumProcessors() != b.NumProcessors() {
		return fmt.Errorf("shape %v, want %v", a, b)
	}
	for i := range a.NumProcessors() {
		if a.Processor(i) != b.Processor(i) {
			return fmt.Errorf("processor %d is node %d, want %d", i, a.Processor(i), b.Processor(i))
		}
	}
	for id := range network.NodeID(a.NumNodes()) {
		n, m := a.Node(id), b.Node(id)
		if n.ID != m.ID || n.Kind != m.Kind || n.Name != m.Name || math.Float64bits(n.Speed) != math.Float64bits(m.Speed) {
			return fmt.Errorf("node %d is %+v, want %+v", id, n, m)
		}
	}
	for id := range network.LinkID(a.NumLinks()) {
		l, k := a.Link(id), b.Link(id)
		if l.ID != k.ID || l.From != k.From || l.To != k.To || !slices.Equal(l.Members(), k.Members()) ||
			math.Float64bits(l.Speed) != math.Float64bits(k.Speed) {
			return fmt.Errorf("link %d is %+v, want %+v", id, l, k)
		}
	}
	return nil
}
