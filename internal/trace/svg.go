package trace

import (
	"fmt"
	"io"
	"math"

	"repro/internal/fptime"
	"repro/internal/network"
	"repro/internal/sched"
)

// SVGOptions controls SVG Gantt rendering.
type SVGOptions struct {
	// Width is the drawing width in pixels (default 900).
	Width int
	// RowHeight is the height of one resource row (default 22).
	RowHeight int
	// Links adds one row per used link under the processor rows.
	Links bool
}

// palette is a set of readable bar fills cycled by task ID.
var palette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// WriteGanttSVG renders the schedule as a self-contained SVG document:
// one row per processor (and optionally per used link), a time axis,
// task bars labelled with task names, and link occupations (full-height
// for exclusive slots, proportional height for bandwidth shares).
func WriteGanttSVG(w io.Writer, s *sched.Schedule, opt SVGOptions) error {
	if opt.Width <= 0 {
		opt.Width = 900
	}
	if opt.RowHeight <= 0 {
		opt.RowHeight = 22
	}
	const leftMargin = 90
	const topMargin = 28
	rowH := float64(opt.RowHeight)
	plotW := float64(opt.Width - leftMargin - 10)
	makespan := s.Makespan
	if makespan <= 0 {
		makespan = 1
	}
	x := func(t float64) float64 { return float64(leftMargin) + t/makespan*plotW }

	// Collect rows: processors first, then used links.
	type rowT struct {
		label string
		link  network.LinkID // -1 for processors
	}
	var rows []rowT
	rowOf := map[network.NodeID]int{}
	for i := range s.Net.NumProcessors() {
		p := s.Net.Processor(i)
		rowOf[p] = len(rows)
		rows = append(rows, rowT{label: s.Net.Node(p).Name, link: -1})
	}
	linkRow := map[network.LinkID]int{}
	if opt.Links {
		for _, es := range s.Edges {
			if es == nil {
				continue
			}
			for _, pl := range es.Placements {
				if _, ok := linkRow[pl.Link]; ok {
					continue
				}
				l := s.Net.Link(pl.Link)
				label := fmt.Sprintf("L%d", pl.Link)
				if !l.IsBus() {
					label = fmt.Sprintf("%s>%s", s.Net.Node(l.From).Name, s.Net.Node(l.To).Name)
				}
				linkRow[pl.Link] = len(rows)
				rows = append(rows, rowT{label: label, link: pl.Link})
			}
		}
	}
	height := topMargin + len(rows)*opt.RowHeight + 30

	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n",
		opt.Width, height); err != nil {
		return err
	}
	if err := p(`<text x="%d" y="16" font-size="13">%s — makespan %.2f</text>`+"\n",
		leftMargin, xmlEscape(s.Algorithm), s.Makespan); err != nil {
		return err
	}
	// Row backgrounds and labels.
	for i, r := range rows {
		y := float64(topMargin + i*opt.RowHeight)
		fill := "#f6f6f6"
		if i%2 == 1 {
			fill = "#ededed"
		}
		if err := p(`<rect x="%d" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
			leftMargin, y, plotW, rowH, fill); err != nil {
			return err
		}
		if err := p(`<text x="%d" y="%.1f" text-anchor="end">%s</text>`+"\n",
			leftMargin-6, y+rowH-7, xmlEscape(r.label)); err != nil {
			return err
		}
	}
	// Time axis ticks (5 divisions).
	axisY := float64(topMargin + len(rows)*opt.RowHeight)
	for i := 0; i <= 5; i++ {
		t := makespan * float64(i) / 5
		if err := p(`<line x1="%.1f" y1="%d" x2="%.1f" y2="%.1f" stroke="#ccc"/>`+"\n",
			x(t), topMargin, x(t), axisY); err != nil {
			return err
		}
		if err := p(`<text x="%.1f" y="%.1f" text-anchor="middle" fill="#555">%.4g</text>`+"\n",
			x(t), axisY+14, t); err != nil {
			return err
		}
	}
	// Task bars.
	for _, tp := range s.Tasks {
		row, ok := rowOf[tp.Proc]
		if !ok {
			continue
		}
		y := float64(topMargin+row*opt.RowHeight) + 2
		wpx := math.Max(x(tp.Finish)-x(tp.Start), 1)
		color := palette[int(tp.Task)%len(palette)]
		name := s.Graph.Task(tp.Task).Name
		if err := p(`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" rx="2"><title>%s [%.2f, %.2f]</title></rect>`+"\n",
			x(tp.Start), y, wpx, rowH-4, color, xmlEscape(name), tp.Start, tp.Finish); err != nil {
			return err
		}
		if wpx > 30 {
			if err := p(`<text x="%.1f" y="%.1f" fill="#fff">%s</text>`+"\n",
				x(tp.Start)+3, y+rowH-9, xmlEscape(name)); err != nil {
				return err
			}
		}
	}
	// Link occupations.
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		color := palette[int(es.Edge)%len(palette)]
		for _, pl := range es.Placements {
			row, ok := linkRow[pl.Link]
			if !ok {
				continue
			}
			y := float64(topMargin+row*opt.RowHeight) + 2
			title := fmt.Sprintf("edge %d", es.Edge)
			if pl.Chunks == nil {
				wpx := math.Max(x(pl.Finish)-x(pl.Start), 1)
				if err := p(`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" fill-opacity="0.8"><title>%s [%.2f, %.2f]</title></rect>`+"\n",
					x(pl.Start), y, wpx, rowH-4, color, title, pl.Start, pl.Finish); err != nil {
					return err
				}
				continue
			}
			for _, c := range pl.Chunks {
				if fptime.LeqEps(c.End, c.Start) {
					continue
				}
				h := (rowH - 4) * c.Rate
				wpx := math.Max(x(c.End)-x(c.Start), 1)
				if err := p(`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" fill-opacity="0.7"><title>%s rate %.0f%%</title></rect>`+"\n",
					x(c.Start), y+(rowH-4)-h, wpx, h, color, title, 100*c.Rate); err != nil {
					return err
				}
			}
		}
	}
	return p("</svg>\n")
}

// xmlEscape escapes the five XML special characters.
func xmlEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			out = append(out, "&amp;"...)
		case '<':
			out = append(out, "&lt;"...)
		case '>':
			out = append(out, "&gt;"...)
		case '"':
			out = append(out, "&quot;"...)
		case '\'':
			out = append(out, "&apos;"...)
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
