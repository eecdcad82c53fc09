package trace

import (
	"encoding/json"
	"io"

	"repro/internal/sched"
)

// The reflection-based schedule encoder AppendScheduleJSON replaced,
// kept verbatim as the reference json_test.go compares it against byte
// for byte: the struct shape below is the document's definition.

// scheduleJSON is the stable JSON shape of a schedule dump.
type scheduleJSON struct {
	Algorithm string           `json:"algorithm"`
	Makespan  float64          `json:"makespan"`
	Tasks     []taskJSON       `json:"tasks"`
	Edges     []edgeJSON       `json:"edges,omitempty"`
	Stats     *sched.CommStats `json:"commStats,omitempty"`
}

type taskJSON struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Proc   string  `json:"processor"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

type edgeJSON struct {
	ID      int       `json:"id"`
	From    int       `json:"from"`
	To      int       `json:"to"`
	Route   []int     `json:"route"`
	Arrival float64   `json:"arrival"`
	Legs    []legJSON `json:"legs"`
}

type legJSON struct {
	Link   int         `json:"link"`
	Start  float64     `json:"start"`
	Finish float64     `json:"finish"`
	Chunks []chunkJSON `json:"chunks,omitempty"`
}

type chunkJSON struct {
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Rate   float64 `json:"rate"`
	Volume float64 `json:"volume"`
}

// referenceScheduleJSON dumps the schedule as indented JSON through
// encoding/json.
func referenceScheduleJSON(w io.Writer, s *sched.Schedule) error {
	doc := scheduleJSON{Algorithm: s.Algorithm, Makespan: s.Makespan}
	for _, tp := range s.Tasks {
		doc.Tasks = append(doc.Tasks, taskJSON{
			ID:     int(tp.Task),
			Name:   s.Graph.Task(tp.Task).Name,
			Proc:   s.Net.Node(tp.Proc).Name,
			Start:  tp.Start,
			Finish: tp.Finish,
		})
	}
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		e := s.Graph.Edge(es.Edge)
		ej := edgeJSON{ID: int(es.Edge), From: int(e.From), To: int(e.To), Arrival: es.Arrival}
		for _, lid := range es.Route {
			ej.Route = append(ej.Route, int(lid))
		}
		for _, pl := range es.Placements {
			lj := legJSON{Link: int(pl.Link), Start: pl.Start, Finish: pl.Finish}
			for _, c := range pl.Chunks {
				lj.Chunks = append(lj.Chunks, chunkJSON{Start: c.Start, End: c.End, Rate: c.Rate, Volume: c.Volume})
			}
			ej.Legs = append(ej.Legs, lj)
		}
		doc.Edges = append(doc.Edges, ej)
	}
	cs := s.CommStats()
	doc.Stats = &cs
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
