package trace

import (
	"fmt"
	"html/template"
	"io"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/sched"
)

// htmlReport is the template context of WriteHTMLReport.
type htmlReport struct {
	Algorithm   string
	Makespan    float64
	Tasks       int
	Edges       int
	Routed      int
	MeanHops    float64
	Speedup     float64
	Efficiency  float64
	CPBound     float64
	WorkBound   float64
	ProcRows    []htmlProcRow
	ChainRows   []htmlChainRow
	Breakdown   analysis.Breakdown
	GanttSVG    template.HTML
	ContMean    float64
	ContMax     float64
	HasAnalysis bool
}

type htmlProcRow struct {
	Name    string
	Tasks   int
	UtilPct float64
}

type htmlChainRow struct {
	Kind   string
	Start  float64
	End    float64
	Dur    float64
	Detail string
}

var htmlTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{{.Algorithm}} schedule report</title>
<style>
body { font-family: sans-serif; margin: 24px; color: #222; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; }
table { border-collapse: collapse; margin-top: 8px; }
td, th { border: 1px solid #ccc; padding: 4px 10px; font-size: 13px; text-align: right; }
th { background: #f0f0f0; } td.l, th.l { text-align: left; }
.metrics span { display: inline-block; margin-right: 24px; font-size: 14px; }
.metrics b { font-size: 18px; }
</style></head><body>
<h1>{{.Algorithm}} — makespan {{printf "%.2f" .Makespan}}</h1>
<div class="metrics">
<span>tasks <b>{{.Tasks}}</b></span>
<span>edges <b>{{.Edges}}</b> ({{.Routed}} routed{{if .Routed}}, mean {{printf "%.1f" .MeanHops}} hops{{end}})</span>
{{if .HasAnalysis}}
<span>speedup <b>{{printf "%.2f" .Speedup}}</b></span>
<span>efficiency <b>{{printf "%.1f" .Efficiency}}%</b></span>
<span>bounds: CP {{printf "%.1f" .CPBound}} / work {{printf "%.1f" .WorkBound}}</span>
{{end}}
</div>
<h2>Gantt chart</h2>
{{.GanttSVG}}
{{if .ProcRows}}<h2>Processors</h2>
<table><tr><th class="l">processor</th><th>tasks</th><th>utilization</th></tr>
{{range .ProcRows}}<tr><td class="l">{{.Name}}</td><td>{{.Tasks}}</td><td>{{printf "%.1f" .UtilPct}}%</td></tr>
{{end}}</table>{{end}}
{{if .HasAnalysis}}
<h2>Contention</h2>
<p>Avoidable communication delay over {{.Routed}} routed edges: mean {{printf "%.2f" .ContMean}}, max {{printf "%.2f" .ContMax}}.</p>
<h2>Critical chain</h2>
<p>compute {{printf "%.1f" .Breakdown.Compute}} · comm {{printf "%.1f" .Breakdown.Comm}} · processor wait {{printf "%.1f" .Breakdown.ProcWait}} · idle {{printf "%.1f" .Breakdown.Idle}}</p>
<table><tr><th>start</th><th>end</th><th>duration</th><th class="l">kind</th><th class="l">detail</th></tr>
{{range .ChainRows}}<tr><td>{{printf "%.2f" .Start}}</td><td>{{printf "%.2f" .End}}</td><td>{{printf "%.2f" .Dur}}</td><td class="l">{{.Kind}}</td><td class="l">{{.Detail}}</td></tr>
{{end}}</table>
{{end}}
</body></html>
`))

// WriteHTMLReport renders a self-contained HTML report: headline
// metrics, the SVG Gantt chart (inline), per-processor utilization,
// and the analysis package's contention and critical-chain findings.
func WriteHTMLReport(w io.Writer, s *sched.Schedule) error {
	rep := analysis.Analyze(s)
	cs := s.CommStats()
	ctx := htmlReport{
		Algorithm:   s.Algorithm,
		Makespan:    s.Makespan,
		Tasks:       len(s.Tasks),
		Edges:       s.Graph.NumEdges(),
		Routed:      cs.RoutedEdges,
		MeanHops:    cs.MeanHops,
		Speedup:     rep.Speedup,
		Efficiency:  100 * rep.Efficiency,
		CPBound:     rep.CPBound,
		WorkBound:   rep.WorkBound,
		Breakdown:   rep.ChainBreakdown,
		ContMean:    rep.ContentionDelay.Mean,
		ContMax:     rep.ContentionDelay.Max,
		HasAnalysis: !s.Ideal,
	}
	// Per-processor table.
	util := s.ProcUtilization()
	count := map[string]int{}
	for _, tp := range s.Tasks {
		count[s.Net.Node(tp.Proc).Name]++
	}
	for i := range s.Net.NumProcessors() {
		p := s.Net.Processor(i)
		name := s.Net.Node(p).Name
		ctx.ProcRows = append(ctx.ProcRows, htmlProcRow{
			Name:    name,
			Tasks:   count[name],
			UtilPct: 100 * util[p],
		})
	}
	sort.Slice(ctx.ProcRows, func(i, j int) bool { return ctx.ProcRows[i].Name < ctx.ProcRows[j].Name })
	for _, c := range rep.CriticalChain {
		ctx.ChainRows = append(ctx.ChainRows, htmlChainRow{
			Kind: c.Kind.String(), Start: c.Start, End: c.End, Dur: c.Dur(), Detail: c.Detail,
		})
	}
	// Inline SVG. The SVG writer escapes all user-controlled strings,
	// so embedding it as template.HTML is safe.
	var svg strings.Builder
	if err := WriteGanttSVG(&svg, s, SVGOptions{Width: 1000, Links: true}); err != nil {
		return fmt.Errorf("trace: embedding svg: %w", err)
	}
	ctx.GanttSVG = template.HTML(svg.String())
	return htmlTmpl.Execute(w, ctx)
}
