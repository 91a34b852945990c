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
// ignored. It also keeps the remaining-use-at-eviction histogram
// (EvictUses) so a run can report Figure 5 without re-parsing the file.
//
// Line shape:
//
//	{"cycle":412,"ev":"evict","preg":87,"set":13,"uses":2,"pinned":false}
//	{"cycle":413,"ev":"miss","preg":19,"set":4,"miss":"conflict"}
type CacheLog struct {
	w   *bufio.Writer
	buf []byte
	err error

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
