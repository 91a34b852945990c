// Package stats provides the statistical primitives used throughout the
// simulator: integer histograms, cumulative distributions, percentiles,
// running moments, and the mean variants used to aggregate per-benchmark
// results (arithmetic, geometric, harmonic).
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram counts integer-valued observations. It grows on demand and
// tracks totals so percentile queries are O(buckets).
type Histogram struct {
	counts []uint64
	n      uint64
	sum    float64
	min    int
	max    int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt, max: math.MinInt}
}

// Add records one observation of value v. Negative values are not
// supported (register counts, cycle counts, and use counts are all
// non-negative) and panic to surface modeling bugs early.
func (h *Histogram) Add(v int) { h.AddN(v, 1) }

// AddN records n observations of value v.
func (h *Histogram) AddN(v int, n uint64) {
	if v < 0 {
		panic(fmt.Sprintf("stats: negative histogram value %d", v))
	}
	if n == 0 {
		return
	}
	if v >= len(h.counts) {
		grown := make([]uint64, v+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[v] += n
	h.n += n
	h.sum += float64(v) * float64(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.n }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean of the observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest observed value, or 0 if empty.
func (h *Histogram) Min() int {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed value, or 0 if empty.
func (h *Histogram) Max() int {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Count returns the number of observations with value v.
func (h *Histogram) Count(v int) uint64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Percentile returns the smallest value v such that at least p (0 < p <= 1)
// of the observations are <= v. An empty histogram yields 0.
func (h *Histogram) Percentile(p float64) int {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p > 1 {
		p = 1
	}
	threshold := uint64(math.Ceil(p * float64(h.n)))
	var cum uint64
	for v, c := range h.counts {
		cum += c
		if cum >= threshold {
			return v
		}
	}
	return h.max
}

// Median returns the 50th percentile.
func (h *Histogram) Median() int { return h.Percentile(0.5) }

// CumulativeLE returns the number of observations with value <= v (the
// cumulative-bucket form Prometheus histogram exposition needs). v < 0
// yields 0; v >= the largest observed value yields N.
func (h *Histogram) CumulativeLE(v int) uint64 {
	if v < 0 || h.n == 0 {
		return 0
	}
	if v >= h.max {
		return h.n
	}
	var cum uint64
	for x := 0; x <= v && x < len(h.counts); x++ {
		cum += h.counts[x]
	}
	return cum
}

// Merge adds all observations from other into h.
func (h *Histogram) Merge(other *Histogram) {
	for v, c := range other.counts {
		if c > 0 {
			h.AddN(v, c)
		}
	}
}

// String renders a compact summary for debugging.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%d p50=%d p90=%d max=%d",
		h.n, h.Mean(), h.Min(), h.Median(), h.Percentile(0.9), h.Max())
}

// Mean returns the arithmetic mean of xs, or 0 if empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values make the result 0.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// HarmonicMean returns the harmonic mean of xs. All values must be
// positive; non-positive values make the result 0.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += 1 / x
	}
	return float64(len(xs)) / s
}

// Ratio returns a/b, or 0 when b is 0, avoiding NaN in reports.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Table is a minimal fixed-width text table builder used by the experiment
// harness to print paper-shaped rows.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	t.rows = append(t.rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, w := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
