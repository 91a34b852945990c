package obs

import (
	"bufio"
	"io"
	"strconv"

	"regcache/internal/stats"
)

// CacheLog is a Tracer that writes one JSON object per register cache event
// (NDJSON), the offline substrate for the paper's distributional figures:
// remaining-use-at-eviction histograms (Figure 5), residency lifetimes
// (Table 2), and per-category miss streams (Figure 8). Pipeline events are
// ignored. It also aggregates counts per event kind so a run's log can be
// cross-checked against core.Stats without re-parsing the file.
//
// Line shape:
//
//	{"cycle":412,"ev":"evict","preg":87,"set":13,"uses":2,"pinned":false}
//	{"cycle":413,"ev":"miss","preg":19,"set":4,"miss":"conflict"}
type CacheLog struct {
	w   *bufio.Writer
	buf []byte
	err error

	counts    [NumCacheEventKinds]uint64
	missBy    [3]uint64
	evictUses *stats.Histogram // remaining uses at eviction (Figure 5)
}

// NewCacheLog returns a CacheLog writing NDJSON to w.
func NewCacheLog(w io.Writer) *CacheLog {
	return &CacheLog{
		w:         bufio.NewWriterSize(w, 1<<16),
		buf:       make([]byte, 0, 128),
		evictUses: stats.NewHistogram(),
	}
}

// TraceCache implements Tracer.
func (l *CacheLog) TraceCache(e CacheEvent) {
	if int(e.Kind) < len(l.counts) {
		l.counts[e.Kind]++
	}
	if e.Kind == CacheMiss && e.MissKind >= 0 && int(e.MissKind) < len(l.missBy) {
		l.missBy[e.MissKind]++
	}
	if e.Kind == CacheEvict && e.Uses >= 0 {
		l.evictUses.Add(int(e.Uses))
	}
	if l.err != nil {
		return
	}
	b := l.buf[:0]
	b = append(b, `{"cycle":`...)
	b = strconv.AppendUint(b, e.Cycle, 10)
	b = append(b, `,"ev":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","preg":`...)
	b = strconv.AppendInt(b, int64(e.PReg), 10)
	b = append(b, `,"set":`...)
	b = strconv.AppendInt(b, int64(e.Set), 10)
	if e.Kind == CacheMiss {
		b = append(b, `,"miss":"`...)
		b = append(b, MissKindName(e.MissKind)...)
		b = append(b, '"')
	} else {
		b = append(b, `,"uses":`...)
		b = strconv.AppendInt(b, int64(e.Uses), 10)
		b = append(b, `,"pinned":`...)
		b = strconv.AppendBool(b, e.Pinned)
	}
	b = append(b, '}', '\n')
	l.buf = b
	if _, err := l.w.Write(b); err != nil {
		l.err = err
	}
}

// TracePipe implements Tracer (pipeline events are not logged here).
func (l *CacheLog) TracePipe(PipeEvent) {}

// Count returns the number of events of the given kind seen so far.
func (l *CacheLog) Count(k CacheEventKind) uint64 {
	if int(k) >= len(l.counts) {
		return 0
	}
	return l.counts[k]
}

// MissCount returns the number of misses of the given classification
// (indexed by core.MissKind).
func (l *CacheLog) MissCount(k int8) uint64 {
	if k < 0 || int(k) >= len(l.missBy) {
		return 0
	}
	return l.missBy[k]
}

// EvictUses returns the histogram of remaining-use counts observed at
// eviction (the Figure 5 distribution).
func (l *CacheLog) EvictUses() *stats.Histogram { return l.evictUses }

// Close flushes buffered output and reports the first write error.
func (l *CacheLog) Close() error {
	if err := l.w.Flush(); l.err == nil {
		l.err = err
	}
	return l.err
}
