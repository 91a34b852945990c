package main

import (
	"errors"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: fewer, and the percentile is one or two outliers.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank p-th percentile of xs (the
// value at rank ceil(p/100·n)) and true, or false when fewer than
// minBeyond samples rank above it.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// span is a half-open time interval in milliseconds since the run's epoch.
type span struct{ lo, hi float64 }

// unionLength returns the length of the union of the spans: overlapping
// and nested spans count once.
func unionLength(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	total := 0.0
	cur := s[0]
	for _, x := range s[1:] {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		if x.hi > cur.hi {
			cur.hi = x.hi
		}
	}
	return total + cur.hi - cur.lo
}

// clip returns the parts of spans that fall inside [lo, hi], dropping
// spans entirely outside it.
func clip(spans []span, lo, hi float64) []span {
	out := make([]span, 0, len(spans))
	for _, x := range spans {
		x.lo = math.Max(x.lo, lo)
		x.hi = math.Min(x.hi, hi)
		if x.hi > x.lo {
			out = append(out, x)
		}
	}
	return out
}

// resetPeakRSS clears the kernel's peak-RSS mark so VmHWM covers only
// what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSKB reads the process's peak resident set size in KiB.
func peakRSSKB() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
