package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/sched"
)

func TestWriteHTMLReport(t *testing.T) {
	for _, algo := range []sched.Algorithm{sched.NewOIHSA(), sched.NewBBSA()} {
		s := sampleSchedule(t, algo)
		var buf bytes.Buffer
		if err := WriteHTMLReport(&buf, s); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{
			"<!DOCTYPE html>", "<svg", "</svg>", "Gantt chart",
			"Processors", s.Algorithm, "speedup",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: report missing %q", algo.Name(), want)
			}
		}
	}
}

func TestWriteHTMLReportIdeal(t *testing.T) {
	g := dag.Diamond(10, 10)
	net := network.Star(3, network.Uniform(1), network.Uniform(1))
	s := mustSchedule(t, sched.NewClassic(), g, net)
	var buf bytes.Buffer
	if err := WriteHTMLReport(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "Critical chain") {
		t.Error("ideal report must not include chain analysis")
	}
}

func TestWriteHTMLReportEscapesNames(t *testing.T) {
	var b dag.Builder
	b.AddTask(`<script>alert(1)</script>`, 10)
	net := network.Star(2, network.Uniform(1), network.Uniform(1))
	s := mustSchedule(t, sched.NewBA(), mustBuild(t, &b), net)
	var buf bytes.Buffer
	if err := WriteHTMLReport(&buf, s); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<script>alert(1)</script>") {
		t.Fatal("task name not escaped in HTML report")
	}
}
