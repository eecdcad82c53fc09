package trace

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/sched"
)

func TestWriteGanttSVGWellFormed(t *testing.T) {
	for _, algo := range []sched.Algorithm{sched.NewBA(), sched.NewBBSA()} {
		s := sampleSchedule(t, algo)
		var buf bytes.Buffer
		if err := WriteGanttSVG(&buf, s, SVGOptions{Links: true}); err != nil {
			t.Fatal(err)
		}
		// The output must be well-formed XML.
		dec := xml.NewDecoder(bytes.NewReader(buf.Bytes()))
		for {
			_, err := dec.Token()
			if err != nil {
				if err.Error() == "EOF" {
					break
				}
				t.Fatalf("%s: invalid XML: %v", algo.Name(), err)
			}
		}
		out := buf.String()
		if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
			t.Fatalf("%s: not an svg document", algo.Name())
		}
		// One bar per task at least.
		if strings.Count(out, "<rect") < s.Graph.NumTasks() {
			t.Errorf("%s: fewer rects than tasks", algo.Name())
		}
		if !strings.Contains(out, "makespan") {
			t.Errorf("%s: missing title", algo.Name())
		}
	}
}

func TestWriteGanttSVGEscapesNames(t *testing.T) {
	var b dag.Builder
	b.AddTask(`evil<&>"name'`, 10)
	net := network.Star(2, network.Uniform(1), network.Uniform(1))
	s := mustSchedule(t, sched.NewBA(), mustBuild(t, &b), net)
	var buf bytes.Buffer
	if err := WriteGanttSVG(&buf, s, SVGOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "evil<&>") {
		t.Fatal("task name not escaped")
	}
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("invalid XML with special chars: %v", err)
		}
	}
}

func TestXMLEscape(t *testing.T) {
	if got := xmlEscape(`a<b>&"c"'d'`); got != "a&lt;b&gt;&amp;&quot;c&quot;&apos;d&apos;" {
		t.Fatalf("escaped %q", got)
	}
	if got := xmlEscape("plain"); got != "plain" {
		t.Fatalf("escaped %q", got)
	}
}
