// Package trace renders schedules, task graphs, and topologies for
// humans and downstream tools: text Gantt charts, CSV event dumps,
// JSON documents, and Graphviz DOT.
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/network"
	"repro/internal/sched"
)

// GanttOptions controls text Gantt rendering.
type GanttOptions struct {
	// Width is the number of character cells of the time axis
	// (default 80).
	Width int
	// Links additionally renders one row per network link that carries
	// traffic.
	Links bool
}

// WriteGantt renders the schedule as a text Gantt chart: one row per
// processor (and optionally per used link), time flowing rightward.
// Task cells show the task ID modulo 10; link cells show '#' for
// exclusive occupation and '+' for partial (shared-bandwidth) use.
func WriteGantt(w io.Writer, s *sched.Schedule, opt GanttOptions) error {
	if opt.Width <= 0 {
		opt.Width = 80
	}
	if s.Makespan <= 0 {
		_, err := fmt.Fprintln(w, "(empty schedule)")
		return err
	}
	scale := float64(opt.Width) / s.Makespan
	cell := func(t float64) int {
		c := int(t * scale)
		if c >= opt.Width {
			c = opt.Width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	if _, err := fmt.Fprintf(w, "%s  makespan=%.2f  (each cell = %.2f time units)\n",
		s.Algorithm, s.Makespan, s.Makespan/float64(opt.Width)); err != nil {
		return err
	}
	blank := func() []rune {
		row := make([]rune, opt.Width)
		for i := range row {
			row[i] = '.'
		}
		return row
	}
	// One row per processor, indexed by node ID; nil off processors.
	rows := make([][]rune, s.Net.NumNodes())
	for i := range s.Net.NumProcessors() {
		rows[s.Net.Processor(i)] = blank()
	}
	for _, tp := range s.Tasks {
		row := rows[tp.Proc]
		if row == nil {
			continue
		}
		lo, hi := cell(tp.Start), cell(tp.Finish)
		for i := lo; i <= hi && i < opt.Width; i++ {
			row[i] = rune('0' + int(tp.Task)%10)
		}
	}
	for i := range s.Net.NumProcessors() {
		p := s.Net.Processor(i)
		if _, err := fmt.Fprintf(w, "%-8s |%s|\n", s.Net.Node(p).Name, string(rows[p])); err != nil {
			return err
		}
	}
	if !opt.Links {
		return nil
	}
	// Link rows, only for links that carry traffic, in link-ID order;
	// nil for the others.
	lrows := make([][]rune, s.Net.NumLinks())
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		for _, pl := range es.Placements {
			row := lrows[pl.Link]
			if row == nil {
				row = blank()
				lrows[pl.Link] = row
			}
			mark := func(a, b float64, full bool) {
				lo, hi := cell(a), cell(b)
				for i := lo; i <= hi && i < opt.Width; i++ {
					if full {
						row[i] = '#'
					} else if row[i] != '#' {
						row[i] = '+'
					}
				}
			}
			if pl.Chunks == nil {
				mark(pl.Start, pl.Finish, true)
			} else {
				for _, c := range pl.Chunks {
					mark(c.Start, c.End, c.Rate > 0.999)
				}
			}
		}
	}
	for i, row := range lrows {
		if row == nil {
			continue
		}
		id := network.LinkID(i)
		l := s.Net.Link(id)
		name := fmt.Sprintf("L%d", id)
		if !l.IsBus() {
			name = fmt.Sprintf("L%d:%s>%s", id, s.Net.Node(l.From).Name, s.Net.Node(l.To).Name)
		}
		if _, err := fmt.Fprintf(w, "%-14s |%s|\n", name, string(row)); err != nil {
			return err
		}
	}
	return nil
}

// WriteScheduleCSV dumps every scheduled event (task executions and
// per-link edge occupations) as CSV rows:
// kind,id,resource,start,finish,detail.
func WriteScheduleCSV(w io.Writer, s *sched.Schedule) error {
	if _, err := fmt.Fprintln(w, "kind,id,resource,start,finish,detail"); err != nil {
		return err
	}
	for _, tp := range s.Tasks {
		name := s.Graph.Task(tp.Task).Name
		if _, err := fmt.Fprintf(w, "task,%d,%s,%.6f,%.6f,%s\n",
			tp.Task, s.Net.Node(tp.Proc).Name, tp.Start, tp.Finish, name); err != nil {
			return err
		}
	}
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		for leg, pl := range es.Placements {
			if pl.Chunks == nil {
				if _, err := fmt.Fprintf(w, "edge,%d,L%d,%.6f,%.6f,leg%d\n",
					es.Edge, pl.Link, pl.Start, pl.Finish, leg); err != nil {
					return err
				}
				continue
			}
			for _, c := range pl.Chunks {
				if _, err := fmt.Fprintf(w, "chunk,%d,L%d,%.6f,%.6f,leg%d rate=%.3f vol=%.3f\n",
					es.Edge, pl.Link, c.Start, c.End, leg, c.Rate, c.Volume); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// sanitizeID makes a string safe as a DOT node identifier.
func sanitizeID(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
