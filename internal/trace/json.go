package trace

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/sched"
)

// WriteScheduleJSON dumps the schedule as indented JSON: the bytes of
// AppendScheduleJSON, written with one Write. On an encoding error
// nothing is written.
func WriteScheduleJSON(w io.Writer, s *sched.Schedule) error {
	bp := writeBufs.Get().(*[]byte)
	defer writeBufs.Put(bp)
	b, err := AppendScheduleJSON((*bp)[:0], s)
	if err != nil {
		return err
	}
	*bp = b
	_, err = w.Write(b)
	return err
}

// writeBufs recycles WriteScheduleJSON's buffers. A document runs to
// hundreds of KB, and a fresh buffer per call, zeroed and later
// collected, costs about a third of the encoding again.
var writeBufs = sync.Pool{New: func() any { return new([]byte) }}

// AppendScheduleJSON appends the schedule's JSON document to dst and
// returns the extended slice. The document is byte-identical to
// json.Encoder's output, indented by two spaces, for the struct shape
// that reference_test.go defines:
//
//	{"algorithm", "makespan", "tasks": [{"id", "name", "processor",
//	"start", "finish"}], "edges": [{"id", "from", "to", "route",
//	"arrival", "legs": [{"link", "start", "finish", "chunks": [{"start",
//	"end", "rate", "volume"}]}]}], "commStats": {...}}
//
// "edges" lists only the routed edges and is omitted when there are
// none; "chunks" is omitted for exclusive-slot legs; an empty "tasks",
// "route" or "legs" prints null. It appends straight from the Schedule,
// so into a buffer with room for the document it allocates nothing.
//
// A NaN or infinite time is an error, as in encoding/json; dst is then
// returned without a partial document.
func AppendScheduleJSON(dst []byte, s *sched.Schedule) ([]byte, error) {
	e := jsonAppender{b: dst}
	e.raw("{\n  \"algorithm\": ")
	e.str(s.Algorithm)
	e.raw(",\n  \"makespan\": ")
	e.float(s.Makespan)
	e.raw(",\n  \"tasks\": ")
	if len(s.Tasks) == 0 {
		e.raw("null")
	} else {
		for i, tp := range s.Tasks {
			e.open(i, "[\n    {\n      \"id\": ", ",\n    {\n      \"id\": ")
			e.int(int(tp.Task))
			e.raw(",\n      \"name\": ")
			e.str(s.Graph.Task(tp.Task).Name)
			e.raw(",\n      \"processor\": ")
			e.str(s.Net.Node(tp.Proc).Name)
			e.raw(",\n      \"start\": ")
			e.float(tp.Start)
			e.raw(",\n      \"finish\": ")
			e.float(tp.Finish)
			e.raw("\n    }")
		}
		e.raw("\n  ]")
	}
	routed := 0
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		e.open(routed, ",\n  \"edges\": [\n    {\n      \"id\": ", ",\n    {\n      \"id\": ")
		routed++
		ed := s.Graph.Edge(es.Edge)
		e.int(int(es.Edge))
		e.raw(",\n      \"from\": ")
		e.int(int(ed.From))
		e.raw(",\n      \"to\": ")
		e.int(int(ed.To))
		e.raw(",\n      \"route\": ")
		if len(es.Route) == 0 {
			e.raw("null")
		} else {
			for i, lid := range es.Route {
				e.open(i, "[\n        ", ",\n        ")
				e.int(int(lid))
			}
			e.raw("\n      ]")
		}
		e.raw(",\n      \"arrival\": ")
		e.float(es.Arrival)
		e.raw(",\n      \"legs\": ")
		if len(es.Placements) == 0 {
			e.raw("null")
		} else {
			for i, pl := range es.Placements {
				e.open(i, "[\n        {\n          \"link\": ", ",\n        {\n          \"link\": ")
				e.int(int(pl.Link))
				e.raw(",\n          \"start\": ")
				e.float(pl.Start)
				e.raw(",\n          \"finish\": ")
				e.float(pl.Finish)
				for j, c := range pl.Chunks {
					e.open(j, ",\n          \"chunks\": [\n            {\n              \"start\": ",
						",\n            {\n              \"start\": ")
					e.float(c.Start)
					e.raw(",\n              \"end\": ")
					e.float(c.End)
					e.raw(",\n              \"rate\": ")
					e.float(c.Rate)
					e.raw(",\n              \"volume\": ")
					e.float(c.Volume)
					e.raw("\n            }")
				}
				if len(pl.Chunks) > 0 {
					e.raw("\n          ]")
				}
				e.raw("\n        }")
			}
			e.raw("\n      ]")
		}
		e.raw("\n    }")
	}
	if routed > 0 {
		e.raw("\n  ]")
	}
	cs := s.CommStats()
	e.raw(",\n  \"commStats\": {\n    \"RoutedEdges\": ")
	e.int(cs.RoutedEdges)
	e.raw(",\n    \"LocalEdges\": ")
	e.int(cs.LocalEdges)
	e.raw(",\n    \"TotalHops\": ")
	e.int(cs.TotalHops)
	e.raw(",\n    \"MeanHops\": ")
	e.float(cs.MeanHops)
	e.raw(",\n    \"MaxArrival\": ")
	e.float(cs.MaxArrival)
	e.raw("\n  }\n}\n")
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

// jsonAppender appends JSON tokens to b, keeping the first encoding
// error; AppendScheduleJSON discards b when err is set.
type jsonAppender struct {
	b   []byte
	err error
}

func (e *jsonAppender) raw(s string) { e.b = append(e.b, s...) }

// open appends first before element 0 of an array and next before
// every later element.
func (e *jsonAppender) open(i int, first, next string) {
	if i == 0 {
		e.raw(first)
	} else {
		e.raw(next)
	}
}

func (e *jsonAppender) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

// float appends f as encoding/json does: the shortest representation
// that round-trips, in exponent form below 1e-6 and from 1e21 up, with
// a single-digit negative exponent written without its leading zero.
func (e *jsonAppender) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// str appends s as a JSON string. Printable ASCII other than the
// characters encoding/json escapes (", \, and the HTML-significant <,
// > and &) is copied as is; any other string is quoted by json.Marshal
// itself, so control bytes, HTML escaping, U+2028/U+2029 and invalid
// UTF-8 come out exactly as encoding/json writes them.
func (e *jsonAppender) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(s)
			if err != nil && e.err == nil {
				e.err = err
			}
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}
