package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || !almost(s.Mean, 2.5) || !almost(s.Min, 1) || !almost(s.Max, 4) {
		t.Fatalf("summary %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if !almost(s.Stddev, want) {
		t.Fatalf("stddev %v, want %v", s.Stddev, want)
	}
	if s.CI95() <= 0 {
		t.Fatalf("CI95 %v", s.CI95())
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSummarizeEmptyAndSingleton(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Stddev != 0 || s.CI95() != 0 {
		t.Fatalf("singleton summary %+v", s)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); !almost(m, 2) {
		t.Fatalf("odd median %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); !almost(m, 2.5) {
		t.Fatalf("even median %v", m)
	}
	if m := Median(nil); m != 0 {
		t.Fatalf("empty median %v", m)
	}
	// Median must not modify its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("median mutated input")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {62.5, 35},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("P%.1f = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile")
	}
}

func TestImprovementPct(t *testing.T) {
	if got := ImprovementPct(200, 150); !almost(got, 25) {
		t.Fatalf("improvement %v, want 25", got)
	}
	if got := ImprovementPct(100, 120); !almost(got, -20) {
		t.Fatalf("regression %v, want -20", got)
	}
	if got := ImprovementPct(0, 5); got != 0 {
		t.Fatalf("zero base %v", got)
	}
}

func TestSummarizeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		// Screen non-finite values from the fuzzer.
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e15 {
				clean = append(clean, x)
			}
		}
		s := Summarize(clean)
		if s.N != len(clean) {
			return false
		}
		if len(clean) == 0 {
			return true
		}
		if s.Min > s.Mean+1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		return s.Stddev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
