package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.N() != 0 || h.Mean() != 0 || h.Median() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, v := range []int{5, 1, 3, 3, 8} {
		h.Add(v)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d, want 5", h.N())
	}
	if h.Min() != 1 || h.Max() != 8 {
		t.Fatalf("min/max = %d/%d, want 1/8", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("mean = %v, want 4", got)
	}
	if h.Median() != 3 {
		t.Fatalf("median = %d, want 3", h.Median())
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram()
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	cases := []struct {
		p    float64
		want int
	}{{0.01, 1}, {0.5, 50}, {0.9, 90}, {1.0, 100}}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("P%.0f = %d, want %d", c.p*100, got, c.want)
		}
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram()
	h.AddN(2, 2)
	h.AddN(5, 2)
	for _, c := range []struct {
		v    int
		want uint64
	}{{1, 0}, {2, 2}, {4, 2}, {5, 4}, {99, 4}} {
		if got := h.CumulativeLE(c.v); got != c.want {
			t.Errorf("CumulativeLE(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Add(1)
	b.Add(3)
	b.Add(3)
	a.Merge(b)
	if a.N() != 3 || a.Count(3) != 2 {
		t.Fatalf("merge failed: n=%d count3=%d", a.N(), a.Count(3))
	}
}

func TestHistogramNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative value")
		}
	}()
	NewHistogram().Add(-1)
}

// Property: percentile is monotone in p and bounded by min/max.
func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Add(int(v))
		}
		prev := h.Min()
		for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
			q := h.Percentile(p)
			if q < prev || q < h.Min() || q > h.Max() {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram mean equals direct mean.
func TestHistogramMeanProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		var sum float64
		for _, v := range vals {
			h.Add(int(v))
			sum += float64(v)
		}
		return math.Abs(h.Mean()-sum/float64(len(vals))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeans(t *testing.T) {
	xs := []float64{1, 2, 4}
	if got := Mean(xs); math.Abs(got-7.0/3) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	if got := GeoMean(xs); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	if got := HarmonicMean(xs); math.Abs(got-12.0/7) > 1e-12 {
		t.Errorf("HarmonicMean = %v, want 12/7", got)
	}
	if GeoMean([]float64{1, 0}) != 0 || HarmonicMean([]float64{-1}) != 0 {
		t.Error("non-positive inputs should yield 0")
	}
	if Mean(nil) != 0 || GeoMean(nil) != 0 || HarmonicMean(nil) != 0 {
		t.Error("empty inputs should yield 0")
	}
}

// Property: harmonic mean <= geometric mean <= arithmetic mean for
// positive inputs.
func TestMeanInequalityProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			xs = append(xs, float64(v)+1)
		}
		if len(xs) == 0 {
			return true
		}
		h, g, a := HarmonicMean(xs), GeoMean(xs), Mean(xs)
		return h <= g+1e-9 && g <= a+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator should be 0")
	}
	if Ratio(6, 3) != 2 {
		t.Error("Ratio(6,3) != 2")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer-name", "22", "dropped-extra")
	s := tb.String()
	if s == "" {
		t.Fatal("empty render")
	}
	for _, want := range []string{"name", "longer-name", "22"} {
		if !contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	if contains(s, "dropped-extra") {
		t.Error("extra cell should have been dropped")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestHistogramCumulativeLE(t *testing.T) {
	h := NewHistogram()
	// Empty: every query is 0, including large v.
	if h.CumulativeLE(-1) != 0 || h.CumulativeLE(0) != 0 || h.CumulativeLE(1000) != 0 {
		t.Fatal("empty histogram should report 0 everywhere")
	}
	for _, v := range []int{0, 3, 3, 7, 100} {
		h.Add(v)
	}
	cases := []struct {
		v    int
		want uint64
	}{
		{-5, 0}, // below zero: nothing
		{0, 1},  // the zero observation
		{2, 1},  // between observations
		{3, 3},  // inclusive of both 3s
		{7, 4},
		{99, 4},      // below the max
		{100, 5},     // at the max: everything
		{1 << 30, 5}, // far beyond: still everything
	}
	for _, c := range cases {
		if got := h.CumulativeLE(c.v); got != c.want {
			t.Errorf("CumulativeLE(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Monotone non-decreasing over the whole range.
	prev := uint64(0)
	for v := -1; v <= 101; v++ {
		cur := h.CumulativeLE(v)
		if cur < prev {
			t.Fatalf("CumulativeLE not monotone at %d: %d < %d", v, cur, prev)
		}
		prev = cur
	}
}
