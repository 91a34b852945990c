package stats

import (
	"math"
	"testing"
)

// TestEmptyHistogramEdges pins every accessor's behaviour on a histogram
// with no observations — results aggregation runs these on schemes that
// produce no cache traffic, so "empty" must mean zeros, not sentinels or
// NaNs leaking out of the MaxInt/MinInt initialisation.
func TestEmptyHistogramEdges(t *testing.T) {
	h := NewHistogram()
	if h.N() != 0 || h.Sum() != 0 {
		t.Errorf("empty N/Sum = %d/%v", h.N(), h.Sum())
	}
	if h.Mean() != 0 {
		t.Errorf("empty Mean = %v, want 0", h.Mean())
	}
	if h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty Min/Max = %d/%d, want 0/0", h.Min(), h.Max())
	}
	for _, p := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("empty Percentile(%v) = %d, want 0", p, got)
		}
	}
	if got := h.Median(); got != 0 {
		t.Errorf("empty Median = %d, want 0", got)
	}
	if got := h.CumulativeLE(1000); got != 0 {
		t.Errorf("empty CumulativeLE = %d, want 0", got)
	}
	if h.Count(0) != 0 || h.Count(-5) != 0 || h.Count(1000) != 0 {
		t.Errorf("empty Count nonzero")
	}
}

// TestSingleBucketCDF: one distinct value must hold the whole cumulative
// distribution at that value, whatever its count.
func TestSingleBucketCDF(t *testing.T) {
	for _, n := range []uint64{1, 7, 1 << 40} {
		h := NewHistogram()
		h.AddN(13, n)
		if below, at := h.CumulativeLE(12), h.CumulativeLE(13); below != 0 || at != n {
			t.Errorf("n=%d: cumulative counts %d below 13 and %d through it, want 0 and %d", n, below, at, n)
		}
		if h.Percentile(0.0001) != 13 || h.Percentile(1) != 13 {
			t.Errorf("n=%d: single-bucket percentiles not 13", n)
		}
	}
}

// TestPercentileClamping: out-of-domain p values clamp to the extremes
// rather than indexing garbage.
func TestPercentileClamping(t *testing.T) {
	h := NewHistogram()
	h.Add(1)
	h.Add(5)
	h.Add(9)
	cases := []struct {
		p    float64
		want int
	}{
		{-3, 1}, {0, 1}, // p <= 0 -> min
		{1, 9}, {2.5, 9}, {math.Inf(1), 9}, // p >= 1 -> max
		{0.34, 5}, {0.99, 9}, {1e-9, 1},
	}
	for _, tc := range cases {
		if got := h.Percentile(tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

// TestAddNLargeCounts exercises counts big enough that a float32 or an
// int32 intermediate would corrupt them: cycle-weighted occupancy
// histograms accumulate counts of this order on long runs.
func TestAddNLargeCounts(t *testing.T) {
	h := NewHistogram()
	const big = uint64(1) << 50
	h.AddN(2, big)
	h.AddN(4, big)
	if h.N() != 2*big {
		t.Fatalf("N = %d, want %d", h.N(), 2*big)
	}
	if got := h.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := h.Percentile(0.5); got != 2 {
		t.Errorf("p50 = %d, want 2", got)
	}
	if got := h.Percentile(0.51); got != 4 {
		t.Errorf("p51 = %d, want 4", got)
	}
	if lo, hi := h.CumulativeLE(2), h.CumulativeLE(4); lo != big || hi != 2*big {
		t.Errorf("cumulative counts = %d, %d, want %d, %d", lo, hi, big, 2*big)
	}
}

// TestAddNZeroIsNoOp: a zero-count add must not grow buckets or disturb
// min/max.
func TestAddNZeroIsNoOp(t *testing.T) {
	h := NewHistogram()
	h.AddN(1000, 0)
	if h.N() != 0 || h.Max() != 0 || h.Count(1000) != 0 {
		t.Fatalf("AddN(v, 0) mutated the histogram: %v", h)
	}
	h.Add(3)
	h.AddN(7, 0)
	if h.Max() != 3 {
		t.Errorf("Max = %d after zero-count AddN(7), want 3", h.Max())
	}
}

// TestMergeEdges: merging an empty histogram is a no-op in both directions,
// and merge totals are exact.
func TestMergeEdges(t *testing.T) {
	a, b, empty := NewHistogram(), NewHistogram(), NewHistogram()
	a.AddN(1, 10)
	b.AddN(1, 5)
	b.AddN(8, 5)

	a.Merge(empty)
	if a.N() != 10 || a.Max() != 1 {
		t.Fatalf("merging empty changed a: %v", a)
	}
	empty2 := NewHistogram()
	empty2.Merge(a)
	if empty2.N() != 10 || empty2.Min() != 1 || empty2.Max() != 1 {
		t.Fatalf("merge into empty lost data: %v", empty2)
	}
	a.Merge(b)
	if a.N() != 20 || a.Max() != 8 || a.Count(1) != 15 {
		t.Errorf("merge totals wrong: n=%d max=%d count1=%d", a.N(), a.Max(), a.Count(1))
	}
}

// TestMeansEdges pins the aggregate-mean helpers on empty and singleton
// inputs, plus the geometric mean's zero handling.
func TestMeansEdges(t *testing.T) {
	if Mean(nil) != 0 || GeoMean(nil) != 0 || HarmonicMean(nil) != 0 {
		t.Errorf("empty-slice means nonzero: %v %v %v", Mean(nil), GeoMean(nil), HarmonicMean(nil))
	}
	one := []float64{4.2}
	if Mean(one) != 4.2 || HarmonicMean(one) != 4.2 {
		t.Errorf("singleton mean/harmean = %v/%v, want 4.2", Mean(one), HarmonicMean(one))
	}
	if g := GeoMean(one); math.Abs(g-4.2) > 1e-12 {
		t.Errorf("singleton geomean = %v, want 4.2", g)
	}
}
